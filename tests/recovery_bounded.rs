//! Exhaustive bounded exploration of the blocking recovery loops.
//!
//! Every fault sequence of depth ≤ 2 drawn from {kill, short flap, 5 %
//! degrade} × one private link per candidate path × {t = 0, t ≈ ½ of
//! the predicted time} runs against a fresh beluga context (three GPU
//! paths) twice: once through `put_resilient`, once through
//! `put_hedged` escalating to `put_resilient` when it runs out of hedge
//! rounds, the way the `fault_storm` benchmark workload drives it.
//!
//! Each run must either land the payload byte-exact or return a typed
//! error (never panic), leave the breaker ledger balanced
//! (`trips == resets + breakers_open`), and finish under a fixed
//! virtual-time ceiling.

use multipath_gpu::prelude::*;
use std::sync::Arc;

/// Payload size: large enough that the plan uses all three paths.
const N: usize = 4 << 20;

/// Virtual-time ceiling for one run. The slowest run of this fault set
/// lands in about 1.2 ms of virtual time (the first deadline's 1 ms
/// floor plus one recovery round); 50 ms leaves room for a few more
/// backed-off rounds, while a loop that stops converging blows it.
const CEILING_SECS: f64 = 0.05;

#[derive(Debug, Clone, Copy)]
enum Call {
    Resilient,
    HedgedThenResilient,
}

fn context() -> UcxContext {
    let rt = GpuRuntime::new(Engine::new(Arc::new(presets::beluga())));
    UcxContext::new(
        rt,
        UcxConfig {
            selection: PathSelection::THREE_GPUS,
            ..UcxConfig::default()
        },
    )
}

/// One fault applied to one link at one time.
type Fault = (f64, LinkId, FaultKind);

/// The depth-1 alphabet: three kinds × one private link per candidate
/// path × two firing times.
fn alphabet() -> Vec<Fault> {
    let ctx = context();
    let gpus = ctx.runtime().engine().topology().gpus();
    let predicted = ctx.plan_for(gpus[0], gpus[1], N).unwrap().predicted_time;
    let paths = ctx
        .paths_for(gpus[0], gpus[1], PathSelection::THREE_GPUS)
        .unwrap();
    assert_eq!(paths.len(), 3, "beluga offers three GPU paths");
    // The last leg's first link is used by no other candidate: the
    // direct NVLink for the direct path, the forwarding link into the
    // destination for each staged path.
    let links: Vec<LinkId> = paths
        .iter()
        .map(|p| p.legs.last().unwrap().route[0])
        .collect();
    let kinds = [
        FaultKind::Kill,
        FaultKind::Flap {
            duration: predicted / 2.0,
        },
        FaultKind::Degrade { factor: 0.05 },
    ];
    let mut out = Vec::new();
    for kind in kinds {
        for &link in &links {
            for at in [0.0, predicted / 2.0] {
                out.push((at, link, kind));
            }
        }
    }
    out
}

/// Runs one call under one fault sequence and checks the invariants.
fn explore(call: Call, faults: &[Fault], data: &[u8]) {
    let ctx = context();
    let eng = ctx.runtime().engine().clone();
    let gpus = eng.topology().gpus();
    let mut plan = FaultPlan::empty();
    for &(at, link, kind) in faults {
        plan = plan.with(at, link, kind);
    }
    FaultInjector::install(&eng, &plan);

    let src = ctx.runtime().alloc_bytes(gpus[0], data.to_vec());
    let dst = ctx.runtime().alloc_zeroed(gpus[1], N);
    let thread = eng.register_thread("explorer");
    let c = ctx.clone();
    let d = dst.clone();
    let outcome = std::thread::spawn(move || {
        let rcfg = RecoveryConfig::default();
        match call {
            Call::Resilient => c.put_resilient(&thread, &src, &d, N, &rcfg).map(|_| ()),
            Call::HedgedThenResilient => c
                .put_hedged(&thread, &src, &d, N, &HedgeConfig::default())
                .map(|_| ())
                .or_else(|_| c.put_resilient(&thread, &src, &d, N, &rcfg).map(|_| ())),
        }
    })
    .join();
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(_) => panic!("{call:?} under {faults:?} panicked"),
    };
    if outcome.is_ok() {
        assert!(
            dst.to_vec().unwrap() == data,
            "{call:?} under {faults:?}: destination corrupted"
        );
    }
    let h = ctx.health_stats();
    assert_eq!(
        h.trips,
        h.resets + h.breakers_open,
        "{call:?} under {faults:?}: breaker ledger unbalanced: {h:?}"
    );
    let virtual_secs = eng.now().as_secs();
    assert!(
        virtual_secs < CEILING_SECS,
        "{call:?} under {faults:?}: {virtual_secs:.4}s virtual exceeds the {CEILING_SECS}s ceiling"
    );
}

#[test]
fn every_fault_sequence_up_to_depth_two_recovers_or_errors() {
    let alphabet = alphabet();
    let data: Vec<u8> = (0..N).map(|i| (i * 29 % 251) as u8).collect();
    let mut sequences: Vec<Vec<Fault>> = vec![Vec::new()];
    for &a in &alphabet {
        sequences.push(vec![a]);
        for &b in &alphabet {
            sequences.push(vec![a, b]);
        }
    }
    assert_eq!(sequences.len(), 1 + 18 + 18 * 18);
    for faults in &sequences {
        for call in [Call::Resilient, Call::HedgedThenResilient] {
            explore(call, faults, &data);
        }
    }
}
