//! The multi-path pipeline engine (paper Section 3.4 + Fig. 2(b), after
//! the engine of reference \[35\]).
//!
//! Given a [`TransferPlan`], the engine executes each path's share
//! concurrently:
//!
//! * the **direct** path is one asynchronous copy on a stream of the
//!   source GPU;
//! * each **staged** path runs the three-step chunk loop on two streams —
//!   leg 1 on the source GPU copies chunk `c` into a staging slot and
//!   records an event; leg 2 on the staging device waits that event and
//!   forwards the chunk. Stream ordering pipelines the chunks; the event
//!   sync cost `ε` and the per-copy launch cost are charged exactly where
//!   the model assumes them.
//!
//! The engine never blocks: it returns a [`TransferHandle`] whose wakers
//! fire as paths drain. Rank threads wait on it; callback-structured
//! tests drain the engine instead.

use mpx_gpu::{Buffer, GpuRuntime};
use mpx_model::TransferPlan;
use mpx_obs::{Phase, QuantileHist, Recorder, ResidualTracker};
use mpx_sim::{SimTime, Waker};
use mpx_topo::path::TransferPath;
use mpx_topo::units::Secs;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Telemetry attached to one transfer by the context: whole-message
/// completion records a `Phase::Transfer` span on the pair's track and
/// feeds the plan's prediction vs the simulated duration to the residual
/// tracker.
#[derive(Clone)]
pub(crate) struct TransferObs {
    pub(crate) rec: Recorder,
    pub(crate) residual: Arc<ResidualTracker>,
    /// Whole-message latency histogram, shared context-wide.
    pub(crate) hist: Arc<QuantileHist>,
    /// Pair label, e.g. `dev0->dev1`.
    pub(crate) pair: String,
}

/// A transfer did not drain all paths before its deadline. Carries the
/// deadline so callers can report how much slack was granted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedOut {
    /// The virtual-time deadline that expired.
    pub deadline: SimTime,
}

impl fmt::Display for TimedOut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "transfer missed deadline {}", self.deadline)
    }
}

impl std::error::Error for TimedOut {}

/// The message range one active path was responsible for. Offsets are
/// relative to the message (add the caller's `src_off`/`dst_off` to get
/// buffer offsets) — this is exactly what a recovery pass needs to
/// re-send a path's residual bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathSlot {
    /// Index into the *candidate path set* the plan was computed from.
    pub path_index: usize,
    /// Start of this path's range within the message.
    pub offset: usize,
    /// Bytes assigned to this path.
    pub bytes: usize,
}

/// In-flight multi-path transfer: one waker per active path.
#[derive(Debug)]
pub struct TransferHandle {
    wakers: Vec<Waker>,
    /// Parallel to `wakers`: which message range each active path owns.
    slots: Vec<PathSlot>,
    /// Parallel to `wakers`: set once the corresponding waker has been
    /// consumed by a successful `wait`/`wait_deadline` (waiting consumes
    /// the signal, so `is_signaled` alone cannot tell "drained").
    drained: Vec<AtomicBool>,
    /// Total bytes of the message.
    pub bytes: usize,
    /// Predicted completion time of the plan this transfer executes.
    predicted: Secs,
}

impl TransferHandle {
    /// Blocks the simulated thread until every path has drained.
    pub fn wait(&self, thread: &mpx_sim::SimThread) {
        for (w, d) in self.wakers.iter().zip(&self.drained) {
            thread.wait(w);
            d.store(true, Ordering::Release);
        }
    }

    /// Blocks until every path has drained **or** virtual time reaches
    /// `deadline`, whichever comes first. On timeout the handle remembers
    /// which paths did drain; [`TransferHandle::unfinished`] returns the
    /// rest so a recovery pass can re-send their residual ranges.
    pub fn wait_deadline(
        &self,
        thread: &mpx_sim::SimThread,
        deadline: SimTime,
    ) -> Result<(), TimedOut> {
        for (w, d) in self.wakers.iter().zip(&self.drained) {
            if d.load(Ordering::Acquire) {
                continue;
            }
            if !thread.wait_until(w, deadline) {
                // A path may have completed in the same instant the
                // deadline fired, or while we were draining earlier
                // wakers — sweep so `unfinished` is exact.
                for (w2, d2) in self.wakers.iter().zip(&self.drained) {
                    if w2.is_signaled() {
                        d2.store(true, Ordering::Release);
                    }
                }
                if self.drained_count() == self.wakers.len() {
                    return Ok(());
                }
                return Err(TimedOut { deadline });
            }
            d.store(true, Ordering::Release);
        }
        Ok(())
    }

    fn drained_count(&self) -> usize {
        self.drained
            .iter()
            .filter(|d| d.load(Ordering::Acquire))
            .count()
    }

    /// True once every path has signaled or been drained by a wait.
    /// (Non-consuming check for callback-structured drivers.)
    pub fn is_complete(&self) -> bool {
        self.wakers
            .iter()
            .zip(&self.drained)
            .all(|(w, d)| d.load(Ordering::Acquire) || w.is_signaled())
    }

    /// Message ranges of paths that have neither signaled nor been
    /// drained — the residual work after a missed deadline.
    pub fn unfinished(&self) -> Vec<PathSlot> {
        self.slots
            .iter()
            .zip(&self.wakers)
            .zip(&self.drained)
            .filter(|((_, w), d)| !d.load(Ordering::Acquire) && !w.is_signaled())
            .map(|((s, _), _)| *s)
            .collect()
    }

    /// The model's predicted completion time for the plan this handle
    /// actually executes — the survivor plan when supervision excluded
    /// paths, the replayed graph's plan under replay.
    pub fn predicted_time(&self) -> Secs {
        self.predicted
    }

    /// Number of active paths.
    pub fn path_count(&self) -> usize {
        self.wakers.len()
    }

    /// The message range each active path owns (drained or not).
    pub(crate) fn slots(&self) -> &[PathSlot] {
        &self.slots
    }

    /// Rewrites each slot's `path_index` through `orig`, mapping indices
    /// into a filtered survivor set back into the full candidate set —
    /// so breaker attribution always speaks candidate-set indices no
    /// matter which subset a plan executed over.
    pub(crate) fn remap_path_indices(&mut self, orig: &[usize]) {
        for s in &mut self.slots {
            s.path_index = orig[s.path_index];
        }
    }

    /// Assembles a handle for `plan` from per-path wakers and their
    /// message ranges — how both the interpreter and the graph-replay
    /// fast path (wrapping a [`mpx_gpu::TransferGraph::launch`]) build
    /// theirs, so callers see the same handle either way.
    pub(crate) fn from_parts(
        wakers: Vec<Waker>,
        slots: Vec<PathSlot>,
        plan: &TransferPlan,
    ) -> TransferHandle {
        let drained = wakers.iter().map(|_| AtomicBool::new(false)).collect();
        TransferHandle {
            wakers,
            slots,
            drained,
            bytes: plan.n,
            predicted: plan.predicted_time,
        }
    }
}

/// Executes `plan` moving `src → dst`, returning immediately.
///
/// `paths` must be the candidate set the plan was computed from (same
/// order). `transfer_seq` tags trace labels so overlapping transfers can
/// be told apart.
///
/// # Panics
/// Panics if buffer sizes don't match the plan, or if plan and paths
/// disagree.
pub fn execute_plan(
    rt: &GpuRuntime,
    plan: &TransferPlan,
    paths: &[TransferPath],
    src: &Buffer,
    dst: &Buffer,
    transfer_seq: u64,
) -> TransferHandle {
    execute_plan_at(rt, plan, paths, src, 0, dst, 0, transfer_seq, &[])
}

/// Like [`execute_plan`], additionally firing every waker in `notify`
/// once the *whole* message (all paths) has landed. This is what the MPI
/// layer uses to complete both the send and the receive request of a
/// matched message.
#[allow(clippy::too_many_arguments)]
pub fn execute_plan_notify(
    rt: &GpuRuntime,
    plan: &TransferPlan,
    paths: &[TransferPath],
    src: &Buffer,
    dst: &Buffer,
    transfer_seq: u64,
    notify: &[Waker],
) -> TransferHandle {
    execute_plan_at(rt, plan, paths, src, 0, dst, 0, transfer_seq, notify)
}

/// Staging slots available per path: chunk `c`'s first leg cannot start
/// until chunk `c − RING_DEPTH`'s slot has been forwarded and freed,
/// bounding staging memory like the ring buffers of the engine in \[35\].
/// Deep enough that rate-matched legs never stall on it; it only binds
/// when the legs are badly mismatched.
pub const RING_DEPTH: usize = 4;

/// The general form: moves `plan.n` bytes from `src[src_off..]` into
/// `dst[dst_off..]` (sub-range sends are how collectives transmit buffer
/// slices), firing `notify` when the whole message has landed.
#[allow(clippy::too_many_arguments)]
pub fn execute_plan_at(
    rt: &GpuRuntime,
    plan: &TransferPlan,
    paths: &[TransferPath],
    src: &Buffer,
    src_off: usize,
    dst: &Buffer,
    dst_off: usize,
    transfer_seq: u64,
    notify: &[Waker],
) -> TransferHandle {
    execute_plan_at_obs(
        rt,
        plan,
        paths,
        src,
        src_off,
        dst,
        dst_off,
        transfer_seq,
        notify,
        None,
    )
}

/// [`execute_plan_at`] with optional per-transfer telemetry (what the
/// context passes when a recorder is installed on the engine).
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute_plan_at_obs(
    rt: &GpuRuntime,
    plan: &TransferPlan,
    paths: &[TransferPath],
    src: &Buffer,
    src_off: usize,
    dst: &Buffer,
    dst_off: usize,
    transfer_seq: u64,
    notify: &[Waker],
    obs: Option<TransferObs>,
) -> TransferHandle {
    assert_eq!(plan.paths.len(), paths.len(), "plan/path set mismatch");
    assert!(
        src.len() >= src_off + plan.n,
        "source buffer smaller than message"
    );
    assert!(
        dst.len() >= dst_off + plan.n,
        "destination buffer smaller than message"
    );

    let topo = rt.engine().topology().clone();
    let oh = topo.overheads;
    let mut wakers = Vec::new();
    let mut slots = Vec::new();
    let mut offset = 0usize;

    // One-time software costs, charged on the direct path's first copy:
    // rendezvous in the cuda_ipc module plus the IPC handle-open cost for
    // the importing side.
    let ipc_cost = rt.ipc().open_cost(src.device().0, dst.id());
    let mut one_time = oh.rendezvous + ipc_cost;

    let active = plan.active_path_count();
    let remaining = Arc::new(AtomicUsize::new(active));
    // The tail closure fires once per active path; the last one signals
    // the whole-message wakers and (when telemetry is attached) records
    // the transfer span and its model residual.
    let want_tail = !notify.is_empty() || obs.is_some();
    let issue_secs = if want_tail {
        rt.engine().now().as_secs()
    } else {
        0.0
    };
    let tail_obs = Arc::new(obs);
    let predicted = plan.predicted_time;
    let n_total = plan.n;
    let make_tail = |wakers: Vec<Waker>| {
        let remaining = remaining.clone();
        let tail_obs = tail_obs.clone();
        move |ctx: &mut mpx_sim::Ctx<'_>| {
            if remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                for w in &wakers {
                    ctx.signal(w);
                }
                if let Some(o) = tail_obs.as_ref() {
                    let end = ctx.now().as_secs();
                    let measured = end - issue_secs;
                    o.rec.span(
                        Phase::Transfer,
                        format!("pair:{}", o.pair),
                        format!("xfer{transfer_seq} {n_total}B"),
                        issue_secs,
                        end,
                        format!(
                            "predicted_us={:.3} measured_us={:.3}",
                            predicted * 1e6,
                            measured * 1e6
                        ),
                    );
                    o.residual.record(&o.pair, n_total, predicted, measured);
                    o.hist.observe(measured);
                }
            }
        }
    };

    for (pi, (pp, path)) in plan.paths.iter().zip(paths).enumerate() {
        if pp.share_bytes == 0 {
            continue;
        }
        assert_eq!(pp.kind, path.kind, "plan/path kind mismatch at {pi}");
        let share = pp.share_bytes;
        let done = Waker::new(format!("xfer{transfer_seq}.p{pi}"));

        // Sequential initiation: path i's first launch waits behind the
        // launches of the paths before it (Algorithm 1 line 18).
        let initiation = oh.copy_launch * pi as f64 + std::mem::take(&mut one_time);

        match path.legs.len() {
            1 => {
                // Direct: a single copy over the direct route.
                let s = rt.stream(src.device());
                s.copy(
                    src,
                    src_off + offset,
                    dst,
                    dst_off + offset,
                    share,
                    path.legs[0].route.clone(),
                    oh.copy_launch + initiation,
                    format!("xfer{transfer_seq}.p{pi}.direct"),
                );
                s.signal(&done);
                if want_tail {
                    s.callback(Box::new(make_tail(notify.to_vec())));
                }
            }
            _ => {
                let via = path.kind.staging_device().expect("staged path");
                let s1 = rt.stream(src.device());
                let s2 = rt.stream(via);
                let k = pp.chunks.max(1) as usize;
                let base = share / k;
                let rem = share % k;
                let mut chunk_off = offset;
                // A bounded ring of reusable staging slots, each sized
                // for the largest chunk — staging memory is
                // RING_DEPTH × chunk regardless of message size.
                let slot_len = base + usize::from(rem > 0);
                let ring: Vec<Buffer> = (0..RING_DEPTH.min(k))
                    .map(|ri| {
                        if src.is_synthetic() {
                            rt.alloc(via, slot_len)
                        } else {
                            let _ = ri;
                            rt.alloc_zeroed(via, slot_len)
                        }
                    })
                    .collect();
                let mut slot_freed: Vec<mpx_gpu::GpuEvent> = Vec::with_capacity(k);
                for c in 0..k {
                    let len = base + usize::from(c < rem);
                    if len == 0 {
                        continue;
                    }
                    // Slot reuse: wait until its previous occupant was
                    // forwarded off the staging device.
                    if slot_freed.len() >= RING_DEPTH {
                        s1.wait_event(&slot_freed[slot_freed.len() - RING_DEPTH]);
                    }
                    let slot = ring[c % RING_DEPTH.min(k)].clone();
                    let first_extra = if c == 0 { initiation } else { 0.0 };
                    s1.copy(
                        src,
                        src_off + chunk_off,
                        &slot,
                        0,
                        len,
                        path.legs[0].route.clone(),
                        oh.copy_launch + first_extra,
                        format!("xfer{transfer_seq}.p{pi}.c{c}.leg1"),
                    );
                    let ev = rt.event(format!("xfer{transfer_seq}.p{pi}.c{c}"));
                    s1.record(&ev);
                    s2.wait_event(&ev);
                    // The event synchronization cost ε is charged on the
                    // forwarding copy.
                    s2.copy(
                        &slot,
                        0,
                        dst,
                        dst_off + chunk_off,
                        len,
                        path.legs[1].route.clone(),
                        oh.copy_launch + oh.stage_sync,
                        format!("xfer{transfer_seq}.p{pi}.c{c}.leg2"),
                    );
                    let freed = rt.event(format!("xfer{transfer_seq}.p{pi}.c{c}.freed"));
                    s2.record(&freed);
                    slot_freed.push(freed);
                    chunk_off += len;
                }
                s2.signal(&done);
                if want_tail {
                    s2.callback(Box::new(make_tail(notify.to_vec())));
                }
            }
        }
        wakers.push(done);
        slots.push(PathSlot {
            path_index: pi,
            offset,
            bytes: share,
        });
        offset += share;
    }
    assert_eq!(offset, plan.n, "plan shares do not cover the message");
    TransferHandle::from_parts(wakers, slots, plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpx_model::{Planner, PlannerConfig};
    use mpx_sim::Engine;
    use mpx_topo::path::{enumerate_paths, PathSelection};
    use mpx_topo::presets;
    use mpx_topo::units::MIB;
    use std::sync::Arc;

    fn setup(topo: mpx_topo::Topology) -> (GpuRuntime, Planner) {
        let topo = Arc::new(topo);
        let rt = GpuRuntime::new(Engine::new(topo.clone()));
        let planner = Planner::new(topo);
        (rt, planner)
    }

    fn run_transfer(
        topo: mpx_topo::Topology,
        n: usize,
        sel: PathSelection,
        real: bool,
    ) -> (f64, Option<Vec<u8>>) {
        let (rt, planner) = setup(topo);
        let gpus = rt.engine().topology().gpus();
        let paths = enumerate_paths(rt.engine().topology(), gpus[0], gpus[1], sel).unwrap();
        let plan = planner.plan(gpus[0], gpus[1], n, sel).unwrap();
        let (src, dst) = if real {
            let data: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
            (rt.alloc_bytes(gpus[0], data), rt.alloc_zeroed(gpus[1], n))
        } else {
            (rt.alloc(gpus[0], n), rt.alloc(gpus[1], n))
        };
        let h = execute_plan(&rt, &plan, &paths, &src, &dst, 0);
        rt.engine().run_until_idle();
        assert!(h.is_complete());
        (rt.engine().now().as_secs(), dst.to_vec())
    }

    #[test]
    fn direct_transfer_reaches_link_bandwidth() {
        let n = 256 * MIB;
        let (t, _) = run_transfer(presets::beluga(), n, PathSelection::DIRECT_ONLY, false);
        let bw = n as f64 / t;
        assert!(
            bw > 0.95 * 48e9 && bw <= 48e9,
            "direct bandwidth {:.1} GB/s",
            bw / 1e9
        );
    }

    #[test]
    fn multi_path_beats_direct_for_large_messages() {
        let n = 256 * MIB;
        let (t_direct, _) = run_transfer(presets::beluga(), n, PathSelection::DIRECT_ONLY, false);
        let (t_multi, _) = run_transfer(
            presets::beluga(),
            n,
            PathSelection::THREE_GPUS_WITH_HOST,
            false,
        );
        let speedup = t_direct / t_multi;
        assert!(
            (2.2..3.6).contains(&speedup),
            "speedup {speedup} out of the paper's band"
        );
    }

    #[test]
    fn data_reassembles_exactly_across_four_paths() {
        let n = 8 * MIB + 13;
        let (_, data) = run_transfer(
            presets::beluga(),
            n,
            PathSelection::THREE_GPUS_WITH_HOST,
            true,
        );
        let expected: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
        assert_eq!(data.unwrap(), expected, "multi-path reassembly corrupted");
    }

    #[test]
    fn data_reassembles_with_two_paths_odd_size() {
        let n = MIB + 4093;
        let (_, data) = run_transfer(presets::beluga(), n, PathSelection::TWO_GPUS, true);
        let expected: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
        assert_eq!(data.unwrap(), expected);
    }

    #[test]
    fn narval_multi_path_speedup_band() {
        let n = 256 * MIB;
        let (t_direct, _) = run_transfer(presets::narval(), n, PathSelection::DIRECT_ONLY, false);
        let (t_multi, _) = run_transfer(presets::narval(), n, PathSelection::THREE_GPUS, false);
        let speedup = t_direct / t_multi;
        assert!(
            (2.0..3.2).contains(&speedup),
            "narval speedup {speedup} out of band"
        );
    }

    #[test]
    fn simulated_time_close_to_model_prediction_large_n() {
        // The headline accuracy claim in miniature: for n >> 4 MB the
        // simulated multi-path time should be within ~10% of the model's
        // prediction (the paper reports <6% against real hardware).
        let (rt, planner) = setup(presets::beluga());
        let gpus = rt.engine().topology().gpus();
        let sel = PathSelection::THREE_GPUS;
        let n = 128 * MIB;
        let paths = enumerate_paths(rt.engine().topology(), gpus[0], gpus[1], sel).unwrap();
        let plan = planner.plan(gpus[0], gpus[1], n, sel).unwrap();
        let src = rt.alloc(gpus[0], n);
        let dst = rt.alloc(gpus[1], n);
        execute_plan(&rt, &plan, &paths, &src, &dst, 0);
        rt.engine().run_until_idle();
        let measured = rt.engine().now().as_secs();
        let rel = (measured - plan.predicted_time).abs() / measured;
        assert!(
            rel < 0.10,
            "model {} vs simulated {} ({}% off)",
            plan.predicted_time,
            measured,
            rel * 100.0
        );
    }

    #[test]
    fn zero_share_paths_are_skipped() {
        // Tiny message: plan collapses to direct; handle has one waker.
        let (rt, planner) = setup(presets::beluga());
        let gpus = rt.engine().topology().gpus();
        let sel = PathSelection::THREE_GPUS_WITH_HOST;
        let n = 8 << 10;
        let paths = enumerate_paths(rt.engine().topology(), gpus[0], gpus[1], sel).unwrap();
        let plan = planner.plan(gpus[0], gpus[1], n, sel).unwrap();
        let src = rt.alloc(gpus[0], n);
        let dst = rt.alloc(gpus[1], n);
        let h = execute_plan(&rt, &plan, &paths, &src, &dst, 0);
        assert_eq!(h.path_count(), 1);
        rt.engine().run_until_idle();
        assert!(h.is_complete());
    }

    #[test]
    fn pipelining_outperforms_unpipelined_execution() {
        let topo = Arc::new(presets::beluga());
        let gpus = topo.gpus();
        let sel = PathSelection::THREE_GPUS;
        let n = 256 * MIB;
        let run = |cfg: PlannerConfig| {
            let rt = GpuRuntime::new(Engine::new(topo.clone()));
            let planner = Planner::with_config(topo.clone(), cfg);
            let paths = enumerate_paths(&topo, gpus[0], gpus[1], sel).unwrap();
            let plan = planner.plan(gpus[0], gpus[1], n, sel).unwrap();
            let src = rt.alloc(gpus[0], n);
            let dst = rt.alloc(gpus[1], n);
            execute_plan(&rt, &plan, &paths, &src, &dst, 0);
            rt.engine().run_until_idle();
            rt.engine().now().as_secs()
        };
        let piped = run(PlannerConfig::default());
        let unpiped = run(PlannerConfig {
            mode: mpx_model::PipelineMode::Unpipelined,
            ..PlannerConfig::default()
        });
        assert!(
            piped < unpiped,
            "pipelined {piped} should beat unpipelined {unpiped}"
        );
    }

    #[test]
    fn rendezvous_and_ipc_charged_once() {
        let (rt, planner) = setup(presets::beluga());
        let gpus = rt.engine().topology().gpus();
        let n = 4096;
        let sel = PathSelection::DIRECT_ONLY;
        let paths = enumerate_paths(rt.engine().topology(), gpus[0], gpus[1], sel).unwrap();
        let plan = planner.plan(gpus[0], gpus[1], n, sel).unwrap();
        let src = rt.alloc(gpus[0], n);
        let dst = rt.alloc(gpus[1], n);
        execute_plan(&rt, &plan, &paths, &src, &dst, 0);
        rt.engine().run_until_idle();
        let first = rt.engine().now().as_secs();
        // Second transfer to the same destination buffer: the IPC handle
        // is cached, so it must finish faster.
        let t0 = rt.engine().now();
        execute_plan(&rt, &plan, &paths, &src, &dst, 1);
        rt.engine().run_until_idle();
        let second = rt.engine().now().secs_since(t0);
        assert!(
            second < first,
            "cached-handle transfer {second} not faster than first {first}"
        );
        assert_eq!(rt.ipc().stats().misses, 1);
        assert_eq!(rt.ipc().stats().hits, 1);
    }

    #[test]
    fn staging_memory_bounded_by_ring_depth() {
        // The point of the slot ring: staging memory must not scale with
        // message size. A 256 MB transfer over a staged path may hold at
        // most RING_DEPTH × chunk bytes on the staging GPU.
        let (rt, planner) = setup(presets::beluga());
        let gpus = rt.engine().topology().gpus();
        let sel = PathSelection::TWO_GPUS;
        let n = 256 * MIB;
        let paths = enumerate_paths(rt.engine().topology(), gpus[0], gpus[1], sel).unwrap();
        let plan = planner.plan(gpus[0], gpus[1], n, sel).unwrap();
        let staged = &plan.paths[1];
        let via = paths[1].kind.staging_device().unwrap();
        let chunk = staged.share_bytes / staged.chunks as usize + 1;
        let src = rt.alloc(gpus[0], n);
        let dst = rt.alloc(gpus[1], n);
        execute_plan(&rt, &plan, &paths, &src, &dst, 0);
        rt.engine().run_until_idle();
        let peak = rt.memory_stats().peak[via.index()] as usize;
        let bound = RING_DEPTH * chunk + 4096;
        assert!(
            peak <= bound,
            "staging peak {peak} exceeds ring bound {bound} (chunk {chunk}, k {})",
            staged.chunks
        );
        assert!(peak > 0, "staging traffic must be tracked");
        // And nothing leaks once the transfer drains.
        assert_eq!(rt.memory_stats().current[via.index()], 0);
    }

    #[test]
    #[should_panic(expected = "smaller than message")]
    fn undersized_destination_panics() {
        let (rt, planner) = setup(presets::beluga());
        let gpus = rt.engine().topology().gpus();
        let sel = PathSelection::DIRECT_ONLY;
        let paths = enumerate_paths(rt.engine().topology(), gpus[0], gpus[1], sel).unwrap();
        let plan = planner.plan(gpus[0], gpus[1], MIB, sel).unwrap();
        let src = rt.alloc(gpus[0], MIB);
        let dst = rt.alloc(gpus[1], MIB - 1);
        execute_plan(&rt, &plan, &paths, &src, &dst, 0);
    }
}
