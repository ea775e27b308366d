//! End-to-end broker behaviour over the simulated fabric: explicit
//! rejection reasons, regime escalation through occupancy, coalesced
//! dispatch, and the accounting invariants.

use std::sync::{Arc, Barrier};

use mpx_broker::{Broker, BrokerConfig, LoadRegime, Outcome, Rejected, TenantSpec};
use mpx_gpu::GpuRuntime;
use mpx_obs::TelemetryRegistry;
use mpx_sim::Engine;
use mpx_topo::presets;
use mpx_ucx::{UcxConfig, UcxContext};

fn context() -> UcxContext {
    let rt = GpuRuntime::new(Engine::new(Arc::new(presets::beluga())));
    UcxContext::new(rt, UcxConfig::default())
}

fn tenants() -> Vec<TenantSpec> {
    vec![
        TenantSpec::new("gold", 3.0),
        TenantSpec::new("silver", 1.0),
        TenantSpec::new("scavenger", 0.0),
    ]
}

#[test]
fn unknown_tenant_is_rejected() {
    let ctx = context();
    let gpus = ctx.runtime().engine().topology().gpus();
    let broker = Broker::new(ctx, BrokerConfig::default(), tenants());
    let err = broker
        .submit("nobody", gpus[0], gpus[1], 1 << 20)
        .unwrap_err();
    assert!(matches!(err, Rejected::UnknownTenant { .. }), "{err}");
    let s = broker.stats();
    assert_eq!(s.shed_invalid, 1);
    assert!(s.accounting_ok(), "{s:?}");
}

#[test]
fn infeasible_deadline_is_shed_at_the_door() {
    let ctx = context();
    let gpus = ctx.runtime().engine().topology().gpus();
    let broker = Broker::new(ctx, BrokerConfig::default(), tenants());
    // A 64 MiB transfer cannot finish in a nanosecond on any fabric.
    let err = broker
        .submit_with_deadline("gold", gpus[0], gpus[1], 64 << 20, Some(1e-9))
        .unwrap_err();
    match err {
        Rejected::DeadlineInfeasible {
            predicted,
            backlog,
            budget,
        } => {
            assert!(predicted > budget, "prediction must exceed the budget");
            assert!(backlog >= 0.0);
        }
        other => panic!("expected DeadlineInfeasible, got {other}"),
    }
    assert_eq!(broker.stats().shed_deadline, 1);
}

#[test]
fn full_queue_sheds_and_regimes_escalate_with_occupancy() {
    let ctx = context();
    let gpus = ctx.runtime().engine().topology().gpus();
    let cfg = BrokerConfig {
        queue_depth: 4,
        ..BrokerConfig::default()
    };
    let broker = Broker::new(ctx, cfg, tenants());
    assert_eq!(broker.regime(), LoadRegime::Normal);

    // No scheduler running: queued requests accumulate. Generous
    // explicit deadlines keep admission happy until the bound.
    let loose = Some(1e6);
    for i in 0..3 {
        broker
            .submit_with_deadline("gold", gpus[0], gpus[1], 1 << 20, loose)
            .unwrap_or_else(|e| panic!("submit {i}: {e}"));
    }
    // Occupancy hit 3/4 = shed_enter: the broker is now Shedding, so
    // the best-effort tenant is refused at the door...
    assert_eq!(broker.regime(), LoadRegime::Shedding);
    let err = broker
        .submit_with_deadline("scavenger", gpus[0], gpus[1], 1 << 20, loose)
        .unwrap_err();
    assert!(matches!(err, Rejected::Shed { .. }), "{err}");

    // ...while a weighted tenant still gets the last slot, which fills
    // the queue and tips the machine into Drain.
    broker
        .submit_with_deadline("silver", gpus[0], gpus[1], 1 << 20, loose)
        .unwrap();
    assert_eq!(broker.regime(), LoadRegime::Drain);

    // Drain refuses everyone, weighted or not.
    let err = broker
        .submit_with_deadline("gold", gpus[0], gpus[1], 1 << 20, loose)
        .unwrap_err();
    assert!(matches!(err, Rejected::Draining), "{err}");

    let s = broker.stats();
    assert_eq!(s.admitted, 4);
    assert_eq!(s.shed_regime, 2);
    assert_eq!(s.regime_changes, 2);
    assert!(s.accounting_ok(), "{s:?}");
}

#[test]
fn queue_full_rejection_carries_the_pair_and_bound() {
    let ctx = context();
    let gpus = ctx.runtime().engine().topology().gpus();
    let cfg = BrokerConfig {
        queue_depth: 2,
        // Disarm the occupancy regimes for this test so the queue bound
        // itself is what rejects.
        regimes: mpx_broker::RegimeConfig {
            shed_enter: 0.99,
            shed_exit: 0.5,
            drain_enter: 1.0,
            drain_exit: 0.625,
        },
        ..BrokerConfig::default()
    };
    let broker = Broker::new(ctx, cfg, tenants());
    let loose = Some(1e6);
    broker
        .submit_with_deadline("gold", gpus[0], gpus[1], 1 << 20, loose)
        .unwrap();
    broker
        .submit_with_deadline("gold", gpus[0], gpus[1], 1 << 20, loose)
        .unwrap();
    let err = broker
        .submit_with_deadline("gold", gpus[0], gpus[1], 1 << 20, loose)
        .unwrap_err();
    match err {
        Rejected::QueueFull { pair, depth } => {
            assert_eq!(pair, (gpus[0], gpus[1]));
            assert_eq!(depth, 2);
        }
        other => panic!("expected QueueFull, got {other}"),
    }
    assert_eq!(broker.stats().shed_queue_full, 1);
}

#[test]
fn coalesces_queued_same_pair_requests_and_drains_clean() {
    let ctx = context();
    let engine = ctx.runtime().engine().clone();
    let gpus = engine.topology().gpus();
    let broker = Broker::new(ctx, BrokerConfig::default(), tenants());
    broker.set_producers(1);

    let sched_thread = engine.register_thread("broker-sched");
    let client_thread = engine.register_thread("client");
    // The client submits everything before the scheduler takes its
    // first look, so the four queued requests must ride one flow.
    let gate = Arc::new(Barrier::new(2));

    std::thread::scope(|s| {
        {
            let broker = broker.clone();
            let gate = gate.clone();
            s.spawn(move || {
                gate.wait();
                broker.run(sched_thread);
            });
        }
        {
            let broker = broker.clone();
            s.spawn(move || {
                let mut tickets = Vec::new();
                for _ in 0..4 {
                    tickets.push(broker.submit("gold", gpus[0], gpus[1], 256 << 10).unwrap());
                }
                broker.producer_done();
                gate.wait();
                for t in tickets {
                    match t.wait(&client_thread) {
                        Outcome::Completed { latency, bytes } => {
                            assert_eq!(bytes, 256 << 10);
                            assert!(latency > 0.0);
                        }
                        Outcome::Failed { waited } => panic!("failed after {waited}s"),
                    }
                }
                drop(client_thread);
            });
        }
    });

    let s = broker.stats();
    assert_eq!(s.admitted, 4);
    assert_eq!(s.completed, 4);
    assert_eq!(s.failed, 0);
    assert_eq!(
        s.dispatches, 1,
        "four queued requests should share one flow"
    );
    assert_eq!(s.coalesced, 3);
    assert!(s.accounting_ok() && s.drained_ok(), "{s:?}");

    // Telemetry surfaces the same numbers.
    let reg = TelemetryRegistry::new();
    broker.fill_registry(&reg);
    let snap = reg.snapshot();
    assert_eq!(snap.get("broker.completed"), Some(4.0));
    assert_eq!(
        snap.get("tenant.gold.completed_bytes"),
        Some(4.0 * (256 << 10) as f64)
    );

    // Every reaped request fed the sojourn histogram, and the registry
    // surfaces its quantiles.
    assert_eq!(broker.sojourn_hist().count(), 4);
    assert_eq!(snap.get("broker.sojourn_secs.count"), Some(4.0));
    assert!(snap.get("broker.sojourn_secs.p99").unwrap() > 0.0);
}

/// Two submissions at one virtual time reach the scheduler in one pass
/// however long the host takes between them: the scheduler is woken
/// only once the client blocks. Had it run as soon as the first request
/// landed, the two requests would ride separate flows.
#[test]
fn scheduler_passes_do_not_depend_on_host_timing() {
    let ctx = context();
    let engine = ctx.runtime().engine().clone();
    let gpus = engine.topology().gpus();
    let broker = Broker::new(ctx, BrokerConfig::default(), tenants());
    broker.set_producers(1);
    let sched_thread = engine.register_thread("broker-sched");
    let client_thread = engine.register_thread("client");

    std::thread::scope(|s| {
        let b = broker.clone();
        s.spawn(move || b.run(sched_thread));
        let b = broker.clone();
        s.spawn(move || {
            // Let the scheduler park on an empty queue first.
            client_thread.sleep(1e-6);
            let first = b.submit("gold", gpus[0], gpus[1], 256 << 10).unwrap();
            // Ample host time for a woken scheduler to run a pass.
            std::thread::sleep(std::time::Duration::from_millis(20));
            let second = b.submit("gold", gpus[0], gpus[1], 256 << 10).unwrap();
            b.producer_done();
            for t in [first, second] {
                assert!(matches!(t.wait(&client_thread), Outcome::Completed { .. }));
            }
            drop(client_thread);
        });
    });

    let s = broker.stats();
    assert_eq!(s.completed, 2);
    assert_eq!(s.dispatches, 1, "the scheduler saw the requests apart");
    assert_eq!(s.coalesced, 1);
}

#[test]
fn entering_shed_regime_fires_the_anomaly_sink() {
    let ctx = context();
    let sink = Arc::new(mpx_obs::AnomalyEngine::new(
        mpx_obs::FlightRecorder::new(1024),
        mpx_obs::AnomalyConfig::default(),
    ));
    ctx.set_anomaly_sink(sink.clone());
    let gpus = ctx.runtime().engine().topology().gpus();
    let cfg = BrokerConfig {
        queue_depth: 4,
        ..BrokerConfig::default()
    };
    let broker = Broker::new(ctx, cfg, tenants());
    let loose = Some(1e6);
    for _ in 0..3 {
        broker
            .submit_with_deadline("gold", gpus[0], gpus[1], 1 << 20, loose)
            .unwrap();
    }
    assert_eq!(broker.regime(), LoadRegime::Shedding);
    let dumps = sink.dumps();
    assert_eq!(dumps.len(), 1, "one dump for the Normal -> Shedding entry");
    assert_eq!(dumps[0].trigger, "shed.regime");
    assert!(
        dumps[0].cause.contains("normal -> shedding"),
        "{}",
        dumps[0].cause
    );
}
