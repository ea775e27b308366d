//! `mpx-obs` — the unified telemetry layer.
//!
//! The paper's artifact is a *predictive model*; its value is how closely
//! predicted transfer times track observed ones. This crate turns every
//! run into a model-validation experiment:
//!
//! * [`Recorder`] — a cheap span/instant sink threaded through the
//!   engine, the UCX context, and the MPI collectives. Phases cover the
//!   whole pipeline: plan → probe → transfer → chunk-leg → recovery →
//!   collective, plus fault and tuner events.
//! * [`export_chrome_trace`] — renders a drained recorder as Chrome
//!   trace-event JSON (Perfetto-loadable): one track per link, path lane,
//!   and rank; faults and re-plans as instant markers.
//! * [`TelemetryRegistry`] / [`MetricsSnapshot`] — one machine-readable
//!   surface unifying the engine's `StatsSnapshot`, the context's
//!   `CacheStats`, and the recovery loop's `ResilienceStats`.
//! * [`ResidualTracker`] — online predicted-vs-measured error histograms
//!   per pair and size class; [`ResidualTracker::report`] reproduces the
//!   paper's error-table shape at runtime and explains drift-based cache
//!   invalidations.
//!
//! The always-on production layer (PR 10) builds on those:
//!
//! * [`FlightRecorder`] — fixed-capacity per-thread ring buffers over
//!   the same span/instant shape: bounded memory forever, an
//!   `overwritten` counter, and non-consuming [`FlightRecorder::snapshot`]
//!   / [`FlightRecorder::snapshot_last`].
//! * [`QuantileHist`] — log-bucketed (HDR-style) quantile histograms,
//!   ~5% relative error, lock-free observation, exact cross-thread
//!   merging; the registry's histogram representation, surfacing
//!   p50/p90/p99/p999.
//! * [`AnomalyEngine`] — declarative triggers over the stack's failure
//!   signals (breaker trips, stuck transfers, deadline-miss bursts,
//!   shed regimes, rebalance storms, residual drift) firing
//!   rate-limited [`BlackBoxDump`]s: ring snapshot + metrics + cause +
//!   residual report, rendered by `mpx report`.
//! * [`render_openmetrics`] — Prometheus/OpenMetrics text exposition of
//!   the registry, histogram buckets included.
//!
//! Everything here is dependency-light (parking_lot + serde/serde_json
//! only) and designed so a stack built *without* a recorder pays one
//! `Option<&Recorder>` branch per operation.

mod anomaly;
mod hist;
mod openmetrics;
mod perfetto;
mod registry;
mod residual;
mod ring;
mod span;

pub use anomaly::{AnomalyConfig, AnomalyEngine, BlackBoxDump, TriggerClass, TriggerStats};
pub use hist::{QuantileHist, MAX_RELATIVE_ERROR, MAX_TRACKED, MIN_TRACKED};
pub use openmetrics::render_openmetrics;
pub use perfetto::{export_chrome_trace, phases_present};
pub use registry::{MetricEntry, MetricsSnapshot, TelemetryRegistry};
pub use residual::{PairResidual, ResidualReport, ResidualRow, ResidualTracker};
pub use ring::{FlightRecorder, DEFAULT_RING_CAPACITY};
pub use span::{DeferredEvents, Event, InstantRecord, Phase, Recorder, SpanRecord};
