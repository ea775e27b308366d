//! Bounded engine state: every queued completion is live, and flow
//! storage tracks the peak number of flows in flight, not the number
//! ever issued.

use mpx_sim::{Ctx, Engine, FlowSpec, OnComplete, SimTime};
use mpx_topo::{presets, LinkId};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn gpu_link(topo: &mpx_topo::Topology, a: usize, b: usize) -> LinkId {
    let gpus = topo.gpus();
    topo.link_between(gpus[a], gpus[b]).unwrap().id
}

fn assert_bounded(eng: &Engine, when: &str) {
    assert!(
        eng.pending_events() <= eng.active_flows(),
        "{when}: {} pending events for {} live flows",
        eng.pending_events(),
        eng.active_flows()
    );
}

/// N flows join one link one at a time, each re-sharing every flow
/// already there, then drain. A queue that left superseded completions
/// behind would hold about N²/2 entries by the last arrival.
#[test]
fn pending_completions_never_exceed_live_flows() {
    const N: usize = 64;
    let topo = Arc::new(presets::beluga());
    let eng = Engine::new(topo.clone());
    let link = gpu_link(&topo, 0, 1);
    // Longer than the link latency, so each arrival has activated.
    let step = 10e-6;
    for i in 0..N {
        eng.start_flow(
            FlowSpec::new(vec![link], (64 << 20) + 4096 * i),
            OnComplete::Nothing,
        );
        eng.run_until(eng.now().after(step));
        assert_eq!(eng.active_flows(), i + 1, "a flow finished early");
        assert_bounded(&eng, &format!("after arrival {i}"));
    }
    while eng.active_flows() > 0 {
        eng.run_until(eng.now().after(100e-6));
        assert_bounded(&eng, &format!("draining at {}", eng.now()));
    }
    let stats = eng.stats();
    assert_eq!(stats.flows_completed, N as u64);
    assert_eq!(eng.pending_events(), 0);
    // The arrivals did re-share the link: every (re)schedule is counted.
    assert!(
        stats.events_scheduled as usize > N * N / 2,
        "only {} schedules",
        stats.events_scheduled
    );
}

/// A stalled flow holds no pending completion; restoring its link gives
/// it exactly one.
#[test]
fn stall_drops_the_completion_and_restore_reschedules_it() {
    let topo = Arc::new(presets::beluga());
    let eng = Engine::new(topo.clone());
    let (killed, healthy) = (gpu_link(&topo, 0, 1), gpu_link(&topo, 2, 3));
    eng.start_flow(FlowSpec::new(vec![killed], 64 << 20), OnComplete::Nothing);
    eng.start_flow(FlowSpec::new(vec![healthy], 1 << 30), OnComplete::Nothing);
    eng.run_until(SimTime::from_secs(10e-6));
    assert_eq!(eng.pending_events(), 2);

    eng.set_link_down(killed);
    assert_eq!(eng.active_flows(), 2, "a stalled flow stays in flight");
    assert_eq!(
        eng.pending_events(),
        1,
        "the stalled flow kept a completion"
    );
    // Re-stalling is idempotent.
    eng.set_link_down(killed);
    assert_eq!(eng.pending_events(), 1);

    eng.run_until(SimTime::from_secs(1e-3));
    eng.restore_link(killed);
    assert_eq!(eng.pending_events(), 2, "restore must reschedule once");

    eng.run_until_idle();
    assert_eq!(eng.stats().flows_completed, 2);
    assert_eq!(eng.pending_events(), 0);
}

/// Starts the next flow of a chain from the previous flow's completion,
/// until `left` runs out.
fn chain(ctx: &mut Ctx<'_>, link: LinkId, left: Arc<AtomicUsize>) {
    if left
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
        .is_err()
    {
        return;
    }
    let bytes = 4096 + 64 * (left.load(Ordering::Relaxed) % 97);
    ctx.start_flow(
        FlowSpec::new(vec![link], bytes),
        OnComplete::Call(Box::new(move |ctx| chain(ctx, link, left))),
    );
}

/// 100k flows issued with at most `K` in flight at once never occupy
/// more than `K` flow slots.
#[test]
fn flow_slots_track_peak_live_flows_not_flows_issued() {
    const TOTAL: usize = 100_000;
    const K: usize = 8;
    let topo = Arc::new(presets::beluga());
    let eng = Engine::new(topo.clone());
    let links = [gpu_link(&topo, 0, 1), gpu_link(&topo, 0, 2)];
    let left = Arc::new(AtomicUsize::new(TOTAL));
    for c in 0..K {
        let (link, left) = (links[c % links.len()], left.clone());
        eng.schedule_in(
            0.0,
            OnComplete::Call(Box::new(move |ctx| chain(ctx, link, left))),
        );
    }
    eng.run_until_idle();
    let stats = eng.stats();
    assert_eq!(stats.flows_issued, TOTAL as u64);
    assert_eq!(stats.flows_completed, TOTAL as u64);
    assert!(
        eng.flow_slots() <= K,
        "{} flow slots for at most {K} live flows",
        eng.flow_slots()
    );
    assert_eq!(eng.active_flows(), 0);
    assert_eq!(eng.pending_events(), 0);
}
