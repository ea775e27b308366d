//! The public PUT contract at its edges: a message length no transfer can
//! carry (zero bytes, or more than a buffer holds) comes back as a typed
//! error from every entry point instead of a panic, and a handle reports
//! the prediction of the plan it actually executes.

use multipath_gpu::prelude::*;
use multipath_gpu::topo::TopologyError;
use std::sync::Arc;

fn context(graph_replay: bool) -> UcxContext {
    let rt = GpuRuntime::new(Engine::new(Arc::new(presets::beluga())));
    UcxContext::new(
        rt,
        UcxConfig {
            selection: PathSelection::THREE_GPUS,
            graph_replay,
            ..UcxConfig::default()
        },
    )
}

/// Runs `f` on a registered simulated thread and returns its result.
fn on_thread<T: Send + 'static>(
    ctx: &UcxContext,
    f: impl FnOnce(&UcxContext, &multipath_gpu::sim::SimThread) -> T + Send + 'static,
) -> T {
    let thread = ctx.runtime().engine().register_thread("caller");
    let c = ctx.clone();
    std::thread::spawn(move || f(&c, &thread)).join().unwrap()
}

#[test]
fn zero_byte_transfers_are_typed_errors() {
    let ctx = context(false);
    let gpus = ctx.runtime().engine().topology().gpus();
    let (a, b) = (gpus[0], gpus[1]);
    let err = TopologyError::InvalidLength(0);
    assert_eq!(ctx.plan_for(a, b, 0).unwrap_err(), err);

    let src = ctx.runtime().alloc(a, 4096);
    let dst = ctx.runtime().alloc(b, 4096);
    assert_eq!(ctx.put_async(&src, &dst, 0).unwrap_err(), err);
    assert_eq!(ctx.put_replayed(&src, &dst, 0).unwrap_err(), err);
    let (s, d) = (src.clone(), dst.clone());
    let (put, resilient, hedged) = on_thread(&ctx, move |c, t| {
        (
            c.put(t, &s, &d, 0),
            c.put_resilient(t, &s, &d, 0, &RecoveryConfig::default()),
            c.put_hedged(t, &s, &d, 0, &HedgeConfig::default()),
        )
    });
    assert_eq!(put, Err(TransferError::Topology(err.clone())));
    assert_eq!(resilient.unwrap_err(), RecoveryError::Topology(err.clone()));
    assert_eq!(hedged.unwrap_err(), RecoveryError::Topology(err.clone()));

    let broker = Broker::new(
        ctx.clone(),
        BrokerConfig::default(),
        vec![TenantSpec::new("t", 1.0)],
    );
    match broker.submit("t", a, b, 0) {
        Err(Rejected::Topology(e)) => assert_eq!(e, err),
        other => panic!("zero-byte submit: {other:?}"),
    }

    // A down link sends the PUT through supervised planning, which
    // solves over the survivors without consulting the plan cache.
    let paths = ctx.paths_for(a, b, PathSelection::THREE_GPUS).unwrap();
    ctx.runtime()
        .engine()
        .set_link_down(paths[1].legs[1].route[0]);
    assert_eq!(ctx.put_async(&src, &dst, 0).unwrap_err(), err);

    // Static mode applies an installed share policy to sizes its table
    // lacks; zero bytes is not one it can carry either.
    let rt = GpuRuntime::new(Engine::new(Arc::new(presets::beluga())));
    let fixed = UcxContext::new(
        rt,
        UcxConfig {
            selection: PathSelection::THREE_GPUS,
            mode: TuningMode::Static,
            ..UcxConfig::default()
        },
    );
    fixed.install_static_shares(vec![0.5, 0.25, 0.25]);
    assert_eq!(fixed.plan_for(a, b, 0).unwrap_err(), err);
}

#[test]
fn undersized_buffers_are_typed_errors() {
    let ctx = context(false);
    let gpus = ctx.runtime().engine().topology().gpus();
    let n = 1 << 20;
    let err = TopologyError::InvalidLength(n);
    let big_src = ctx.runtime().alloc(gpus[0], n);
    let big_dst = ctx.runtime().alloc(gpus[1], n);
    let small_src = ctx.runtime().alloc(gpus[0], n - 1);
    let small_dst = ctx.runtime().alloc(gpus[1], n - 1);
    assert_eq!(ctx.put_async(&big_src, &small_dst, n).unwrap_err(), err);
    assert_eq!(ctx.put_async(&small_src, &big_dst, n).unwrap_err(), err);
    // An offset that pushes the range past the end, and one that
    // overflows the address arithmetic outright.
    assert_eq!(
        ctx.put_async_at(&big_src, 0, &big_dst, 1, n, &[])
            .unwrap_err(),
        err
    );
    assert_eq!(
        ctx.put_async_at(&big_src, usize::MAX, &big_dst, 0, n, &[])
            .unwrap_err(),
        err
    );
    let (s, d) = (big_src.clone(), small_dst.clone());
    let (put, resilient, hedged) = on_thread(&ctx, move |c, t| {
        (
            c.put(t, &s, &d, n),
            c.put_resilient(t, &s, &d, n, &RecoveryConfig::default()),
            c.put_hedged(t, &s, &d, n, &HedgeConfig::default()),
        )
    });
    assert_eq!(put, Err(TransferError::Topology(err.clone())));
    assert_eq!(resilient.unwrap_err(), RecoveryError::Topology(err.clone()));
    assert_eq!(hedged.unwrap_err(), RecoveryError::Topology(err.clone()));
    // Nothing was issued, and the buffers still take a valid PUT.
    let h = ctx.put_async(&big_src, &big_dst, n).unwrap();
    ctx.runtime().engine().run_until_idle();
    assert!(h.is_complete());
}

#[test]
fn undersized_buffers_never_reach_graph_replay() {
    let ctx = context(true);
    let gpus = ctx.runtime().engine().topology().gpus();
    let n = 1 << 20;
    let src = ctx.runtime().alloc(gpus[0], n);
    let small = ctx.runtime().alloc(gpus[1], n - 1);
    assert_eq!(
        ctx.put_replayed(&src, &small, n).unwrap_err(),
        TopologyError::InvalidLength(n)
    );
    // The refused PUT captured no graph and did not gate the pair's
    // replays: the next well-formed PUT captures and replays as usual.
    assert_eq!(ctx.graph_stats().captures, 0);
    let dst = ctx.runtime().alloc(gpus[1], n);
    let h = ctx.put_replayed(&src, &dst, n).unwrap();
    ctx.runtime().engine().run_until_idle();
    assert!(h.is_complete());
    assert_eq!(ctx.graph_stats().replays, 1);
    assert_eq!(ctx.health_stats().replays_gated, 0);
}

#[test]
fn handle_carries_the_executed_plans_prediction() {
    let ctx = context(false);
    let gpus = ctx.runtime().engine().topology().gpus();
    let (a, b) = (gpus[0], gpus[1]);
    let n = 64 << 20;
    let src = ctx.runtime().alloc(a, n);
    let dst = ctx.runtime().alloc(b, n);

    // Healthy fabric: the handle runs the cached plan.
    let full = ctx.plan_for(a, b, n).unwrap();
    let h = ctx.put_async(&src, &dst, n).unwrap();
    assert_eq!(h.predicted_time(), full.predicted_time);
    ctx.runtime().engine().run_until_idle();

    // A dead staged path: the PUT runs over the two survivors, and its
    // handle reports that plan's (slower) prediction, not the cached
    // full-set one.
    let paths = ctx.paths_for(a, b, PathSelection::THREE_GPUS).unwrap();
    ctx.runtime()
        .engine()
        .set_link_down(paths[1].legs[1].route[0]);
    let survivors = [paths[0].clone(), paths[2].clone()];
    let survivor_plan = ctx.planner().compute(n, &survivors).unwrap();
    let h = ctx.put_async(&src, &dst, n).unwrap();
    assert_eq!(h.predicted_time(), survivor_plan.predicted_time);
    assert!(h.predicted_time() > full.predicted_time);
    assert_eq!(
        ctx.plan_for(a, b, n).unwrap().predicted_time,
        full.predicted_time
    );
}
