//! Degradation-aware transfers: deadline, detect, re-plan, retry.
//!
//! [`UcxContext::put_resilient`] wraps a PUT in a recovery loop. The
//! first attempt runs the normal cached plan but waits with a
//! *simulated-time deadline* derived from the plan's own prediction
//! (`predicted_time × slack`). If the deadline expires, the
//! [`crate::pipeline::TransferHandle`] reports exactly which paths
//! drained; the residual byte ranges are re-planned by Algorithm 1 over
//! the *surviving* candidate paths with parameters re-probed against the
//! fabric's current capacities, and re-sent. Slack backs off
//! exponentially so a merely-degraded (not dead) path gets
//! proportionally more time each round; the retry budget is bounded.
//!
//! Re-planning over survivors preserves the paper's optimality argument:
//! Algorithm 1's equal-time condition never referenced the failed path —
//! it equalizes completion over whatever candidate set it is given, so
//! the residual transfer is again optimal for the degraded fabric, down
//! to a single surviving path.
//!
//! # One recovery round
//!
//! The steps every blocking PUT shares live here, once each: the
//! survivor filter (`survivors`), the re-probe against current
//! capacities (`probe_current`), the residual solve-and-issue
//! (`issue_residuals`) and the wait-and-charge step (`settle`).
//! `put_resilient` and [`UcxContext::put_hedged`] are two loops over
//! them, differing in exclusions, wait ladder, residual rule, what they
//! do with no candidate left, and counters; [`UcxContext::put`] settles
//! its one handle the same way.

use crate::context::UcxContext;
use crate::deadline::DeadlinePolicy;
use crate::pipeline::TransferHandle;
use crate::probe::probe_all_with;
use mpx_gpu::Buffer;
use mpx_model::{PairKey, TransferPlan};
use mpx_obs::Phase;
use mpx_sim::{SimThread, SimTime};
use mpx_topo::params::PathParams;
use mpx_topo::path::TransferPath;
use mpx_topo::units::Secs;
use mpx_topo::TopologyError;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Tunables of the recovery loop.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryConfig {
    /// Deadline = predicted time × `slack` (first attempt).
    pub slack: f64,
    /// Multiplier applied to `slack` after every missed deadline.
    pub backoff: f64,
    /// Recovery rounds allowed after the initial attempt.
    pub max_retries: u32,
    /// Floor for any deadline, so tiny transfers are not declared dead
    /// on scheduling noise.
    pub min_deadline: Secs,
    /// Decorrelated-jitter width on the backoff: each round's slack is
    /// drawn uniformly from `[slack, slack × backoff × (1 + jitter)]`,
    /// so concurrent tenants recovering from the same flap don't retry
    /// in lockstep. `0.0` restores the deterministic geometric ladder.
    /// The expected growth per round stays ≈ `backoff`.
    pub jitter: f64,
    /// Seed for the jitter draws, mixed with the transfer's sequence
    /// number — deterministic for a fixed seed and issue order, while
    /// distinct transfers still decorrelate.
    pub seed: u64,
    /// Ceiling on the backed-off slack multiplier.
    pub max_slack: f64,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            slack: 4.0,
            backoff: 2.0,
            max_retries: 4,
            min_deadline: 1e-3,
            jitter: 0.5,
            seed: 0x7265_7472,
            max_slack: 256.0,
        }
    }
}

/// One decorrelated-jitter step: the next slack, drawn uniformly from
/// `[prev, prev × backoff × (1 + jitter)]` and capped. The draw comes
/// from a caller-owned xorshift state, so the sequence is a pure
/// function of the seed.
pub(crate) fn jittered_slack(prev: f64, rcfg: &RecoveryConfig, state: &mut u64) -> f64 {
    let step = rcfg.backoff.max(1.0);
    let cap = rcfg.max_slack.max(rcfg.slack.max(1.0));
    if rcfg.jitter <= 0.0 {
        return (prev * step).min(cap);
    }
    // xorshift64* — tiny, seedable, plenty for retry spreading.
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    let u = (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64;
    let hi = prev * step * (1.0 + rcfg.jitter);
    (prev + u * (hi - prev)).min(cap)
}

/// What a resilient PUT went through.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Recovery rounds that ran (0 = clean first attempt).
    pub retries: u64,
    /// Residual-range plans computed across all rounds.
    pub replans: u64,
    /// Bytes re-sent through recovery rounds.
    pub recovered_bytes: u64,
    /// Surviving candidate paths used by the final round (equals the
    /// full candidate count on a clean run).
    pub final_paths: usize,
}

/// A resilient PUT that could not complete.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryError {
    /// Planning/topology failure (no candidate paths survive, etc.).
    Topology(TopologyError),
    /// The retry budget ran out with bytes still unfinished.
    RetriesExhausted {
        /// Rounds attempted.
        retries: u64,
        /// Bytes that never landed.
        unfinished_bytes: u64,
    },
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::Topology(e) => write!(f, "recovery planning failed: {e}"),
            RecoveryError::RetriesExhausted {
                retries,
                unfinished_bytes,
            } => write!(
                f,
                "retry budget exhausted after {retries} rounds, {unfinished_bytes} bytes unfinished"
            ),
        }
    }
}

impl std::error::Error for RecoveryError {}

impl From<TopologyError> for RecoveryError {
    fn from(e: TopologyError) -> RecoveryError {
        RecoveryError::Topology(e)
    }
}

/// Shared counters behind [`UcxContext::resilience_stats`].
#[derive(Debug, Default)]
pub(crate) struct ResilienceCounters {
    pub(crate) retries: AtomicU64,
    pub(crate) replans: AtomicU64,
    pub(crate) timeouts: AtomicU64,
    pub(crate) cache_invalidations: AtomicU64,
}

impl ResilienceCounters {
    pub(crate) fn snapshot(&self) -> ResilienceStats {
        ResilienceStats {
            retries: self.retries.load(Ordering::Relaxed),
            replans: self.replans.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            cache_invalidations: self.cache_invalidations.load(Ordering::Relaxed),
        }
    }
}

/// Snapshot of the context's degradation-handling counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Recovery rounds run.
    pub retries: u64,
    /// Residual plans computed by recovery rounds.
    pub replans: u64,
    /// Deadlines missed.
    pub timeouts: u64,
    /// Cache entries dropped because observed bandwidth drifted past
    /// [`crate::UcxConfig::drift_tolerance`].
    pub cache_invalidations: u64,
}

/// A contiguous residual byte range of the message, in message-relative
/// offsets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Range {
    pub(crate) offset: usize,
    pub(crate) bytes: usize,
}

/// Coalesces adjacent/overlapping ranges so each recovery round plans as
/// few residual messages as possible.
pub(crate) fn coalesce(mut ranges: Vec<Range>) -> Vec<Range> {
    ranges.sort_by_key(|r| r.offset);
    let mut out: Vec<Range> = Vec::with_capacity(ranges.len());
    for r in ranges {
        match out.last_mut() {
            Some(last) if r.offset <= last.offset + last.bytes => {
                let end = (r.offset + r.bytes).max(last.offset + last.bytes);
                last.bytes = end - last.offset;
            }
            _ => out.push(r),
        }
    }
    out
}

/// Residual ranges of a timed-out handle, shifted into message-absolute
/// offsets (`base` is where the handle's sub-message started).
pub(crate) fn residuals_of(h: &TransferHandle, base: usize) -> Vec<Range> {
    h.unfinished()
        .into_iter()
        .map(|s| Range {
            offset: base + s.offset,
            bytes: s.bytes,
        })
        .collect()
}

/// Total bytes of a range list.
pub(crate) fn total_bytes(ranges: &[Range]) -> u64 {
    ranges.iter().map(|r| r.bytes as u64).sum()
}

/// The candidates a recovery step may use, with their indices in the full
/// candidate set (so breaker attribution stays in candidate-set space).
pub(crate) struct Survivors {
    pub(crate) paths: Vec<TransferPath>,
    pub(crate) orig: Vec<usize>,
}

/// One batch of residual sends in flight together.
pub(crate) struct Round {
    /// Each residual's handle with the message offset it starts at.
    pub(crate) handles: Vec<(TransferHandle, usize)>,
    /// The slowest prediction among the round's plans.
    pub(crate) worst: Secs,
    /// Eq. 24 solves the round ran.
    pub(crate) solves: u64,
}

impl UcxContext {
    /// True when every link of every leg of `path` is up.
    pub(crate) fn route_is_up(&self, path: &TransferPath) -> bool {
        let eng = self.runtime().engine();
        path.legs
            .iter()
            .all(|leg| leg.route.iter().all(|&l| eng.link_is_up(l)))
    }

    /// The survivor filter: candidates `skip` leaves in whose routes are
    /// up. A skipped candidate is left alone; a candidate over a down
    /// link charges its breaker (`link-down`) and drops out.
    pub(crate) fn survivors(
        &self,
        pair: PairKey,
        paths: &[TransferPath],
        skip: impl Fn(usize) -> bool,
    ) -> Survivors {
        let mut live = Survivors {
            paths: Vec::new(),
            orig: Vec::new(),
        };
        for (i, p) in paths.iter().enumerate() {
            if skip(i) {
                continue;
            }
            if self.route_is_up(p) {
                live.paths.push(p.clone());
                live.orig.push(i);
            } else {
                self.health_path_failure(pair, i, p, "link-down");
            }
        }
        live
    }

    /// Per-path parameters probed against the fabric's *current* link
    /// capacities. Down links sit at capacity 0, which the probe rejects,
    /// so they get a dummy rate; no path handed in routes over one.
    pub(crate) fn probe_current(
        &self,
        paths: &[TransferPath],
    ) -> Result<Vec<PathParams>, TopologyError> {
        let eng = self.runtime().engine();
        let caps: Vec<f64> =
            eng.with_capacities(|c| c.iter().map(|&v| if v > 0.0 { v } else { 1.0 }).collect());
        probe_all_with(eng.topology(), Some(&caps), paths)
    }

    /// Re-solves Eq. 24 over `live` for every residual range and issues
    /// them all at once. Stalled pipelines shed uniform chunk-sized
    /// residuals, so a run of equal sizes reuses the last solve instead
    /// of re-running the share system per range.
    pub(crate) fn issue_residuals(
        &self,
        pending: &[Range],
        live: &Survivors,
        params: Vec<PathParams>,
        src: &Buffer,
        dst: &Buffer,
    ) -> Result<Round, TopologyError> {
        let mut round = Round {
            handles: Vec::with_capacity(pending.len()),
            worst: 0.0,
            solves: 0,
        };
        let mut last: Option<TransferPlan> = None;
        for r in pending {
            let plan = match last.take() {
                Some(plan) if plan.n == r.bytes => plan,
                _ => {
                    round.solves += 1;
                    self.planner()
                        .compute_with_params(r.bytes, &live.paths, params.clone())
                }
            };
            round.worst = round.worst.max(plan.predicted_time);
            let seq = self.next_seq();
            let mut h = self.issue(
                &plan,
                &live.paths,
                src,
                r.offset,
                dst,
                r.offset,
                seq,
                &[],
                false,
            )?;
            h.remap_path_indices(&live.orig);
            round.handles.push((h, r.offset));
            last = Some(plan);
        }
        Ok(round)
    }

    /// Waits for a round until `deadline`. A handle that lands credits its
    /// paths' breakers; one that misses charges each stalled path with
    /// `why` and then runs `on_miss`. Returns what the round left
    /// unfinished, coalesced, in message offsets — empty when all of it
    /// landed.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn settle(
        &self,
        thread: &SimThread,
        pair: PairKey,
        paths: &[TransferPath],
        round: &[(TransferHandle, usize)],
        deadline: SimTime,
        why: &str,
        mut on_miss: impl FnMut(&TransferHandle),
    ) -> Vec<Range> {
        let mut left = Vec::new();
        for (h, base) in round {
            if h.wait_deadline(thread, deadline).is_ok() {
                self.health_mark_success(pair, h);
                continue;
            }
            for s in h.unfinished() {
                self.health_path_failure(pair, s.path_index, &paths[s.path_index], why);
            }
            on_miss(h);
            left.extend(residuals_of(h, *base));
        }
        coalesce(left)
    }

    /// Blocking PUT with detection and recovery: deadlines from the
    /// plan's own prediction, residual re-planning over surviving paths,
    /// exponential slack backoff, bounded retries. See the module docs
    /// for the policy.
    pub fn put_resilient(
        &self,
        thread: &SimThread,
        src: &Buffer,
        dst: &Buffer,
        n: usize,
        rcfg: &RecoveryConfig,
    ) -> Result<RecoveryReport, RecoveryError> {
        let t0 = thread.now();
        let mut slack = rcfg.slack.max(1.0);
        let mut report = RecoveryReport::default();

        // Attempt 0: the normal cached plan over the full candidate set.
        let plan = self.plan_for(src.device(), dst.device(), n)?;
        let pair = self.pair_key(src.device(), dst.device(), self.effective_selection());
        let all_paths = self.paths_for(src.device(), dst.device(), self.effective_selection())?;
        report.final_paths = all_paths.len();
        let seq = self.next_seq();
        // Jitter state: the config seed mixed with this transfer's
        // sequence number, so concurrent transfers decorrelate while a
        // fixed seed and issue order replay the same slack ladder.
        let mut jitter_state = (rcfg.seed ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1;
        let label = format!("{}->{}", src.device(), dst.device());
        let pair_track = format!("pair:{label}");
        let first = [(
            self.issue(&plan, &all_paths, src, 0, dst, 0, seq, &[], false)?,
            0,
        )];
        let deadline = DeadlinePolicy::new(slack, rcfg.min_deadline)
            .deadline(thread.now(), plan.predicted_time);
        let mut pending = self.settle(
            thread,
            pair,
            &all_paths,
            &first,
            deadline,
            "deadline-miss",
            |h| {
                self.resilience().timeouts.fetch_add(1, Ordering::Relaxed);
                let unfinished: u64 = h.unfinished().iter().map(|s| s.bytes as u64).sum();
                if let Some(rec) = self.recorder() {
                    rec.instant(
                        Phase::Recovery,
                        pair_track.clone(),
                        format!("deadline-miss xfer{seq}"),
                        thread.now().as_secs(),
                        format!("unfinished_bytes={unfinished} slack={slack:.1}"),
                    );
                }
                self.anomaly_signal(
                    mpx_obs::TriggerClass::DeadlineMissBurst,
                    Some(&label),
                    h.unfinished().first().map(|s| s.path_index),
                    &format!("xfer{seq} unfinished_bytes={unfinished} slack={slack:.1}"),
                );
            },
        );

        // Recovery rounds: drop dead paths, re-probe, re-plan the
        // residuals over the survivors, re-send, back off.
        let mut round = 0u32;
        while !pending.is_empty() {
            if round >= rcfg.max_retries {
                return Err(RecoveryError::RetriesExhausted {
                    retries: report.retries,
                    unfinished_bytes: total_bytes(&pending),
                });
            }
            round += 1;
            slack = jittered_slack(slack, rcfg, &mut jitter_state);
            report.retries += 1;
            self.resilience().retries.fetch_add(1, Ordering::Relaxed);

            let live = self.survivors(pair, &all_paths, |_| false);
            if live.paths.is_empty() {
                return Err(TopologyError::NoUsablePath(src.device(), dst.device()).into());
            }
            report.final_paths = live.paths.len();
            let params = self.probe_current(&live.paths)?;
            if let Some(rec) = self.recorder() {
                rec.instant(
                    Phase::Recovery,
                    pair_track.clone(),
                    format!("replan round{round}"),
                    thread.now().as_secs(),
                    format!(
                        "survivors={} of {} residual_ranges={}",
                        live.paths.len(),
                        all_paths.len(),
                        pending.len()
                    ),
                );
            }

            // One residual plan per run of equal-size coalesced ranges,
            // all in flight concurrently, sharing one backed-off deadline.
            let resend = self.issue_residuals(&pending, &live, params, src, dst)?;
            report.replans += resend.solves;
            self.resilience()
                .replans
                .fetch_add(resend.solves, Ordering::Relaxed);
            report.recovered_bytes += total_bytes(&pending);
            let deadline =
                DeadlinePolicy::new(slack, rcfg.min_deadline).deadline(thread.now(), resend.worst);
            pending = self.settle(
                thread,
                pair,
                &all_paths,
                &resend.handles,
                deadline,
                "deadline-miss",
                |h| {
                    self.resilience().timeouts.fetch_add(1, Ordering::Relaxed);
                    self.anomaly_signal(
                        mpx_obs::TriggerClass::DeadlineMissBurst,
                        Some(&label),
                        h.unfinished().first().map(|s| s.path_index),
                        &format!("retry round{round} slack={slack:.1}"),
                    );
                },
            );
        }

        // Feed the observation back so the cache notices drift (a
        // recovered transfer is by definition far off its prediction).
        let elapsed = thread.now().secs_since(t0);
        if elapsed > 0.0 {
            self.record_observation(src.device(), dst.device(), n, n as f64 / elapsed);
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_ladder_is_deterministic_and_bounded() {
        let rcfg = RecoveryConfig::default();
        let run = |seed: u64| -> Vec<f64> {
            let mut state = seed | 1;
            let mut slack = rcfg.slack;
            (0..6)
                .map(|_| {
                    slack = jittered_slack(slack, &rcfg, &mut state);
                    slack
                })
                .collect()
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b, "same seed must replay the same ladder");
        let c = run(91);
        assert_ne!(a, c, "different seeds must decorrelate");
        // Every step stays in [prev, prev·backoff·(1+jitter)] ∩ [0, cap].
        let mut prev = rcfg.slack;
        for &s in &a {
            assert!(
                s >= prev.min(rcfg.max_slack),
                "slack regressed: {s} < {prev}"
            );
            assert!(s <= (prev * rcfg.backoff * (1.0 + rcfg.jitter)).min(rcfg.max_slack) + 1e-9);
            prev = s;
        }
    }

    #[test]
    fn zero_jitter_restores_the_geometric_ladder() {
        let rcfg = RecoveryConfig {
            jitter: 0.0,
            ..RecoveryConfig::default()
        };
        let mut state = 7u64;
        let mut slack = rcfg.slack;
        for round in 1..=4 {
            slack = jittered_slack(slack, &rcfg, &mut state);
            let expect = (rcfg.slack * rcfg.backoff.powi(round)).min(rcfg.max_slack);
            assert!((slack - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn jitter_caps_at_max_slack() {
        let rcfg = RecoveryConfig {
            max_slack: 10.0,
            ..RecoveryConfig::default()
        };
        let mut state = 1u64;
        let mut slack = rcfg.slack;
        for _ in 0..20 {
            slack = jittered_slack(slack, &rcfg, &mut state);
        }
        assert!(slack <= 10.0);
    }
}
