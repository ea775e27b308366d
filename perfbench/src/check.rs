//! Output checks. A run that fails any of them exits nonzero before a
//! single metric is printed, and every run first shows that the checker
//! rejects deliberately corrupted copies of its own result.

/// Everything a run's correctness is judged on.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Ops started in the timed run.
    pub attempted: u64,
    /// Ops that finished (on time or late).
    pub completed: u64,
    /// Ops the program failed to carry out (transfer errors, abandoned
    /// requests, corrupted bytes).
    pub failed: u64,
    /// Ops refused at admission (broker sheds).
    pub shed: u64,
    /// Transfer handles still incomplete after the final drain.
    pub incomplete: u64,
    /// Real-payload PUTs whose destination was compared byte for byte.
    pub payload_checked: u64,
    /// Of those, the ones whose bytes differed.
    pub payload_mismatches: u64,
    /// `BrokerStats::accounting_ok() && drained_ok()`; `None` without a broker.
    pub broker_books: Option<bool>,
    /// Breaker transitions: `(trips, resets, breakers_open)`.
    pub breakers: (u64, u64, u64),
    /// Recovery activity: retries, replans, timeouts, trips, hedges.
    pub recovery: [u64; 5],
    /// The workload runs on a fault-free fabric, so `recovery` must be 0.
    pub fault_free: bool,
}

/// Every violated invariant, empty when the result is correct.
pub fn violations(l: &Ledger) -> Vec<String> {
    let mut v = Vec::new();
    if l.attempted == 0 {
        v.push("no op was attempted".into());
    }
    if l.attempted != l.completed + l.failed + l.shed {
        v.push(format!(
            "attempted {} != completed {} + failed {} + shed {}",
            l.attempted, l.completed, l.failed, l.shed
        ));
    }
    if l.incomplete != 0 {
        v.push(format!(
            "{} handles incomplete after the drain",
            l.incomplete
        ));
    }
    if l.payload_checked == 0 {
        v.push("no real-payload PUT was checked".into());
    }
    if l.payload_mismatches != 0 {
        v.push(format!(
            "{} of {} real-payload PUTs corrupted",
            l.payload_mismatches, l.payload_checked
        ));
    }
    if l.broker_books == Some(false) {
        v.push("broker accounting or drain invariant violated".into());
    }
    let (trips, resets, open) = l.breakers;
    if trips != resets + open {
        v.push(format!(
            "breaker ledger: trips {trips} != resets {resets} + open {open}"
        ));
    }
    if l.fault_free && l.recovery.iter().any(|&c| c != 0) {
        v.push(format!(
            "recovery counters nonzero on a fault-free fabric: {:?}",
            l.recovery
        ));
    }
    v
}

/// Byte-exact comparison of a real-payload PUT's destination.
pub fn payload_ok(expected: &[u8], got: &[u8]) -> bool {
    expected == got
}

/// Shows the checker rejects corrupted variants of a correct result: a
/// lost op, an unfinished handle, an unbalanced breaker ledger, recovery
/// on a fault-free fabric, and a flipped payload byte. `sample` is one
/// real-payload PUT's `(expected, got)` bytes from this run.
pub fn self_test(good: &Ledger, sample: &(Vec<u8>, Vec<u8>)) -> Result<(), String> {
    type Corruption = (&'static str, fn(&mut Ledger));
    let corruptions: [Corruption; 5] = [
        ("lost op", |l| l.attempted += 1),
        ("unfinished handle", |l| l.incomplete += 1),
        ("unbalanced breakers", |l| l.breakers.0 += 1),
        ("corrupted payload", |l| l.payload_mismatches += 1),
        ("recovery on a quiet fabric", |l| {
            l.fault_free = true;
            l.recovery[0] += 1;
        }),
    ];
    for (what, corrupt) in corruptions {
        let mut bad = good.clone();
        corrupt(&mut bad);
        if violations(&bad).is_empty() {
            return Err(format!("checker accepted a result with a {what}"));
        }
    }
    let (expected, got) = sample;
    if !payload_ok(expected, got) {
        return Err("the retained payload sample is itself corrupt".into());
    }
    let mut flipped = got.clone();
    if let Some(b) = flipped.last_mut() {
        *b ^= 0x01;
    }
    if payload_ok(expected, &flipped) {
        return Err("byte check accepted a flipped payload byte".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn good() -> Ledger {
        Ledger {
            attempted: 10,
            completed: 8,
            failed: 1,
            shed: 1,
            payload_checked: 2,
            broker_books: Some(true),
            breakers: (3, 2, 1),
            fault_free: false,
            recovery: [4, 0, 0, 0, 0],
            ..Ledger::default()
        }
    }

    #[test]
    fn accepts_a_balanced_result() {
        assert!(violations(&good()).is_empty());
        assert!(self_test(&good(), &(vec![1, 2, 3], vec![1, 2, 3])).is_ok());
    }

    #[test]
    fn rejects_corruption() {
        let mut l = good();
        l.completed -= 1;
        assert_eq!(violations(&l).len(), 1);
        let mut l = good();
        l.broker_books = Some(false);
        assert_eq!(violations(&l).len(), 1);
        let mut l = good();
        l.fault_free = true;
        assert_eq!(violations(&l).len(), 1);
        assert!(self_test(&good(), &(vec![1, 2], vec![1, 3])).is_err());
    }
}
