//! Algorithm 1: computing the optimal path configuration for one
//! transfer, with the configuration cache (paper Section 4).
//!
//! Given `(src, dst, message size, candidate paths)` the planner:
//!
//! 1. resolves each candidate path's links and Hockney parameters
//!    (Algorithm 1 lines 7–15, via `mpx-topo`);
//! 2. derives each path's affine coefficients `Ωᵢ, Δᵢ` — pipelined
//!    staged paths through the φ-linearization (Eq. 22), direct paths
//!    exactly — accumulating the sequential-initiation latency of earlier
//!    paths into `Δᵢ` (line 18);
//! 3. solves for the optimal shares `θᵢ` (Eq. 24, lines 22–26);
//! 4. converts shares to aligned byte counts, giving the remainder to the
//!    direct path (lines 27–29), and picks per-path chunk counts
//!    (Eqs. 14/15 rounded);
//! 5. caches the result per `(src, dst, selection, n)` in a sharded,
//!    read-mostly [`PlanCache`], optionally quantized into geometric
//!    size classes (see [`SizeClassConfig`]) so an irregular size sweep
//!    costs O(size classes) solves instead of O(distinct sizes).

use crate::cache::{BuildFxHasher, CacheCounters, ShardedMap};
use crate::optimizer::{optimal_shares, optimal_time, OmegaDelta};
use crate::pipeline::{
    bottleneck, chunk_count, omega_delta_pipelined, omega_delta_unpipelined, time_pipelined,
    topology_constant, Bottleneck,
};
use mpx_topo::params::{extract_all, PathParams};
use mpx_topo::path::{enumerate_paths_auto, PathKind, PathSelection, TransferPath};
use mpx_topo::units::{Bandwidth, Secs};
use mpx_topo::{DeviceId, Topology, TopologyError};
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Whether staged paths are modeled (and executed) with chunk pipelining.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PipelineMode {
    /// One monolithic copy per leg (Section 3.3's model).
    Unpipelined,
    /// Chunked, pipelined staging (Section 3.4's model). The default.
    Pipelined,
}

/// Size-class quantization of the plan-cache key.
///
/// With quantization enabled, messages above [`exact_below`] share one
/// cache entry per geometric size class ([`per_octave`] classes per
/// doubling): the first size in a class pays the full Algorithm-1 solve
/// and its share distribution is reused — rescaled to the exact byte
/// count — for every later size in the class. A guard keeps the
/// shortcut honest: the rescaled plan is accepted only if its
/// model-predicted time stays within `(1 + ε)` of the equalized-time
/// optimum computed (cheaply, in closed form) for the exact size;
/// otherwise the planner falls back to an exact solve. Below
/// [`exact_below`] the key is always the exact byte count — the paper's
/// Observation 4 nonlinearity (path activation thresholds) makes
/// bucketing unsafe for small messages.
///
/// [`exact_below`]: SizeClassConfig::exact_below
/// [`per_octave`]: SizeClassConfig::per_octave
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SizeClassConfig {
    /// Quantize cache keys at all. Off by default: exact keying
    /// reproduces the paper's per-`(pair, n)` cache bit for bit.
    pub enabled: bool,
    /// Guard tolerance ε: a class-derived plan may predict at most
    /// `(1 + ε)×` the exact plan's equalized time.
    pub epsilon: f64,
    /// Size classes per size doubling (geometric granularity).
    pub per_octave: u32,
    /// Messages below this many bytes always use exact keys.
    pub exact_below: usize,
}

// Not derivable: the default must keep the recommended tunables so
// flipping `enabled` alone yields a sane configuration.
#[allow(clippy::derivable_impls)]
impl Default for SizeClassConfig {
    fn default() -> Self {
        SizeClassConfig {
            enabled: false,
            ..SizeClassConfig::ENABLED
        }
    }
}

impl SizeClassConfig {
    /// The recommended quantizing configuration: 4 classes per octave,
    /// ε = 5%, exact keys below 4 MiB.
    pub const ENABLED: SizeClassConfig = SizeClassConfig {
        enabled: true,
        epsilon: 0.05,
        per_octave: 4,
        exact_below: 4 << 20,
    };

    /// The class index of an `n`-byte message.
    #[inline]
    pub fn class_of(&self, n: usize) -> u32 {
        debug_assert!(n > 0);
        (self.per_octave.max(1) as f64 * (n as f64).log2()).floor() as u32
    }
}

/// Quantizes fractional path shares of an `n`-byte message into
/// `alignment`-aligned byte counts (each rounded down), writing them into
/// `bytes` and returning the total assigned. Callers give the rounding
/// remainder `n - total` to path 0 — the direct path, the only one free
/// of the alignment constraint. The single Lines 27–29 implementation
/// shared by the planner's solve loop, the size-class realization, and
/// the exhaustive tuner's manual plans.
pub fn quantize_shares(
    bytes: &mut [usize],
    shares: impl IntoIterator<Item = f64>,
    n: usize,
    alignment: usize,
) -> usize {
    let nf = n as f64;
    let align = alignment.max(1);
    let mut assigned = 0usize;
    for (b, t) in bytes.iter_mut().zip(shares) {
        *b = ((t * nf) as usize / align) * align;
        assigned += *b;
    }
    assigned
}

/// Planner tunables.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlannerConfig {
    /// Pipelining mode for staged paths.
    pub mode: PipelineMode,
    /// Upper bound on chunks per path (staging-ring depth of the pipeline
    /// engine).
    pub max_chunks: u32,
    /// Do not split below this chunk size; bounds per-chunk overhead for
    /// small messages.
    pub min_chunk_bytes: usize,
    /// Share byte counts are rounded down to this alignment (element
    /// size); the remainder goes to the direct path.
    pub alignment: usize,
    /// Size-class quantization of the plan-cache key.
    #[serde(default)]
    pub size_classes: SizeClassConfig,
    /// Exact plans retained per cache shard before the shard's epoch is
    /// cleared (bounds the cache footprint under irregular size sweeps;
    /// the steady-state working set stays resident).
    #[serde(default = "default_plans_per_shard")]
    pub plans_per_shard: usize,
}

fn default_plans_per_shard() -> usize {
    512
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            mode: PipelineMode::Pipelined,
            max_chunks: 32,
            min_chunk_bytes: 256 << 10,
            alignment: 4,
            size_classes: SizeClassConfig::default(),
            plans_per_shard: default_plans_per_shard(),
        }
    }
}

/// One path's slice of the plan.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlannedPath {
    /// Index within the candidate set (0 = direct).
    pub index: usize,
    /// Path class.
    pub kind: PathKind,
    /// Hockney parameters used (after the sequential-initiation
    /// correction).
    pub params: PathParams,
    /// Optimal fraction `θᵢ` from Eq. (24).
    pub theta: f64,
    /// Bytes assigned (aligned; direct path absorbs the remainder).
    pub share_bytes: usize,
    /// Chunks to pipeline this share through (1 for direct or excluded
    /// paths).
    pub chunks: u32,
    /// The model's predicted completion time for this path's share.
    pub predicted_time: Secs,
}

/// A complete transfer configuration: Algorithm 1's `configs[], shares[]`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TransferPlan {
    /// Message size in bytes.
    pub n: usize,
    /// Per-path assignments, direct path first.
    pub paths: Vec<PlannedPath>,
    /// Predicted end-to-end time: `max_i` of per-path predictions.
    pub predicted_time: Secs,
    /// Predicted aggregate bandwidth `n / T`.
    pub predicted_bandwidth: Bandwidth,
}

impl TransferPlan {
    /// Paths that actually carry bytes.
    pub fn active_paths(&self) -> impl Iterator<Item = &PlannedPath> {
        self.paths.iter().filter(|p| p.share_bytes > 0)
    }

    /// Number of paths carrying bytes.
    pub fn active_path_count(&self) -> usize {
        self.active_paths().count()
    }

    /// Predicted aggregate bandwidth when `window` messages of this size
    /// are in flight at once (the OMB windowed-BW protocol): the fixed
    /// costs `Δ` are paid once per window instead of once per message, so
    /// bandwidth approaches the asymptote as the window grows —
    /// Observation 2's mechanism, model-side.
    ///
    /// With all `window` messages sharing the same path set fairly, each
    /// path's per-byte time scales with the total bytes while its fixed
    /// cost does not: `T(w) ≈ w·(T − Δ_max) + Δ_max` where `Δ_max` is the
    /// slowest path's fixed cost at the equalized optimum.
    pub fn predicted_windowed_bandwidth(&self, window: usize) -> Bandwidth {
        let w = window.max(1) as f64;
        // The makespan path's fixed-cost component: T_i = θᵢnΩᵢ + Δᵢ at
        // the optimum; take the Δ of the path achieving the makespan.
        let delta_max = self
            .paths
            .iter()
            .filter(|p| p.share_bytes > 0)
            .max_by(|a, b| {
                a.predicted_time
                    .partial_cmp(&b.predicted_time)
                    .expect("finite")
            })
            .map(|p| p.params.delta_unpipelined())
            .unwrap_or(0.0);
        let streaming = (self.predicted_time - delta_max).max(0.0);
        (w * self.n as f64) / (w * streaming + delta_max)
    }

    /// Renders the plan as an aligned text table (used by the CLI and
    /// examples).
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "plan for {} bytes ({} active path(s)):",
            self.n,
            self.active_path_count()
        );
        for p in &self.paths {
            let _ = writeln!(
                out,
                "  {:<22} theta={:<8.4} bytes={:<12} chunks={:<3} t={:.1}us",
                p.kind.to_string(),
                p.theta,
                p.share_bytes,
                p.chunks,
                p.predicted_time * 1e6
            );
        }
        let _ = writeln!(
            out,
            "  predicted: {:.2} GB/s in {:.1} us",
            self.predicted_bandwidth / 1e9,
            self.predicted_time * 1e6
        );
        out
    }
}

/// Cache counters (a snapshot; the live counters are atomics and reading
/// them never blocks planning).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlannerStats {
    /// Plans served from the exact-size cache.
    pub hits: u64,
    /// Plans computed from scratch.
    pub misses: u64,
    /// Plans realized cheaply from a cached size-class entry.
    pub class_hits: u64,
    /// Size-class candidates rejected by the ε guard (fell back to an
    /// exact solve).
    pub class_fallbacks: u64,
    /// Drift-triggered pair invalidations.
    pub invalidations: u64,
}

impl PlannerStats {
    /// Component-wise sum (for aggregating several caches).
    pub fn merged(self, other: PlannerStats) -> PlannerStats {
        PlannerStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            class_hits: self.class_hits + other.class_hits,
            class_fallbacks: self.class_fallbacks + other.class_fallbacks,
            invalidations: self.invalidations + other.invalidations,
        }
    }
}

/// The pair-level cache key — `(src, dst, max_gpu_staged, host_staged)`,
/// i.e. everything that determines the candidate path set. It doubles as
/// the shard key of every map in a [`PlanCache`], so invalidating one
/// pair locks exactly one shard.
pub type PairKey = (DeviceId, DeviceId, usize, bool);

type ExactKey = (PairKey, usize);
type ClassKey = (PairKey, u32);

/// One path's slice of a cached size-class solution: the launch-corrected
/// parameters, the solved share fraction, and the memoized affine-law
/// coefficients — everything needed to re-realize the distribution (and
/// re-check its optimality bound) at a nearby exact size without touching
/// the topology or the pair memo.
///
/// The Eq. 22 φ-linearization factors as `Ω(φ) = ob + oc·φ` and
/// `Δ(φ) = db + dc/φ`, and the topology constant scales as
/// `φ(n) = phi_scale/√n` (it is `1/√x_ref` with `x_ref ∝ n`), so the
/// coefficients at any message size cost a handful of flops. Direct or
/// unpipelined paths are constants: `oc = dc = 0`, `phi_scale = 0`.
#[derive(Debug, Clone)]
struct ClassPath {
    kind: PathKind,
    params: PathParams,
    theta: f64,
    ob: f64,
    oc: f64,
    db: f64,
    dc: f64,
    phi_scale: f64,
}

/// A size-class cache entry: the share distribution Algorithm 1 solved at
/// the first size seen in the class.
#[derive(Debug)]
struct ClassEntry {
    paths: Vec<ClassPath>,
}

/// Outcome of one locked cache probe.
enum Lookup {
    Exact(Arc<TransferPlan>),
    Class(Arc<ClassEntry>),
    Miss,
}

/// One cache shard: the exact and size-class tables of the pairs hashing
/// here, behind a single `RwLock` so a probe costs one read acquisition.
#[derive(Default)]
struct CacheShard {
    exact: HashMap<ExactKey, Arc<TransferPlan>, BuildFxHasher>,
    class: HashMap<ClassKey, Arc<ClassEntry>, BuildFxHasher>,
}

/// A sharded, read-mostly configuration cache: exact `(pair, n)` plans
/// plus (when quantization is on) per-size-class share distributions,
/// with lock-free atomic counters. Shards are selected by the device
/// pair, so invalidating one pair locks exactly one shard.
///
/// The planner owns one for datasheet-parameter plans; the transport
/// layer owns a second one for probed-parameter plans and drives it
/// through [`Planner::plan_in_cache`], so both share the identical
/// caching and quantization logic.
pub struct PlanCache {
    shards: Box<[RwLock<CacheShard>]>,
    counters: CacheCounters,
    /// Process-unique id, distinguishing this cache's entries in the
    /// thread-local L0 (addresses can be reused; ids never are).
    id: u64,
    /// Bumped after every invalidation/clear. Thread-local L0 entries
    /// remember the epoch they were filled under and are ignored once it
    /// moves on, so no stale plan survives an invalidation.
    epoch: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new()
    }
}

/// Source of process-unique [`PlanCache::id`]s.
static CACHE_IDS: AtomicU64 = AtomicU64::new(1);

impl PlanCache {
    /// Creates an empty cache.
    pub fn new() -> PlanCache {
        PlanCache {
            shards: (0..crate::cache::SHARDS)
                .map(|_| RwLock::new(CacheShard::default()))
                .collect(),
            counters: CacheCounters::default(),
            id: CACHE_IDS.fetch_add(1, Ordering::Relaxed),
            epoch: AtomicU64::new(0),
        }
    }

    #[inline]
    fn shard(&self, pair: &PairKey) -> &RwLock<CacheShard> {
        let idx = crate::cache::fx_hash_of(pair) as usize % self.shards.len();
        &self.shards[idx]
    }

    /// One shard read acquisition: the exact plan if cached, else the
    /// size-class entry if `class_key` was given and is cached.
    fn probe(&self, exact_key: &ExactKey, class_key: Option<&ClassKey>) -> Lookup {
        let shard = self.shard(&exact_key.0).read();
        if let Some(p) = shard.exact.get(exact_key) {
            return Lookup::Exact(p.clone());
        }
        if let Some(ck) = class_key {
            if let Some(e) = shard.class.get(ck) {
                return Lookup::Class(e.clone());
            }
        }
        Lookup::Miss
    }

    /// Inserts an exact plan (and, on a solve that seeds a new size
    /// class, its class entry), epoch-clearing the exact table at `cap`
    /// entries so an irregular size sweep cannot grow the cache — and
    /// its allocation footprint — without bound.
    fn store(
        &self,
        exact_key: ExactKey,
        plan: Arc<TransferPlan>,
        class: Option<(ClassKey, Arc<ClassEntry>)>,
        cap: usize,
    ) {
        let mut shard = self.shard(&exact_key.0).write();
        if shard.exact.len() >= cap.max(1) {
            shard.exact.clear();
        }
        shard.exact.insert(exact_key, plan);
        if let Some((ck, entry)) = class {
            shard.class.insert(ck, entry);
        }
    }

    /// A snapshot of the counters. Reads relaxed atomics only — never
    /// contends with concurrent planning.
    pub fn stats(&self) -> PlannerStats {
        let c = &self.counters;
        PlannerStats {
            hits: CacheCounters::read(&c.hits),
            misses: CacheCounters::read(&c.misses),
            class_hits: CacheCounters::read(&c.class_hits),
            class_fallbacks: CacheCounters::read(&c.class_fallbacks),
            invalidations: CacheCounters::read(&c.invalidations),
        }
    }

    /// Drops every cached plan and class entry of one device pair,
    /// locking only that pair's shard. The drift-invalidation primitive.
    /// The epoch bump (after the purge, so a concurrent planner can never
    /// re-validate a pre-purge plan under the new epoch) retires every
    /// thread's L0 entries for this cache.
    pub fn invalidate_pair(&self, pair: PairKey) {
        let mut shard = self.shard(&pair).write();
        shard.exact.retain(|k, _| k.0 != pair);
        shard.class.retain(|k, _| k.0 != pair);
        drop(shard);
        self.epoch.fetch_add(1, Ordering::Release);
        CacheCounters::bump(&self.counters.invalidations);
    }

    /// Drops every cached plan (counters are kept).
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            let mut s = shard.write();
            s.exact.clear();
            s.class.clear();
        }
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// Number of exact plans currently cached.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().exact.len()).sum()
    }

    /// Whether no exact plans are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One entry of the thread-local L0: the plan this thread last obtained
/// for `(cache, pair, n)`, valid only while the cache's epoch stands
/// still. Serving from it costs no lock at all — the steady-state repeat
/// workload of a rank thread never touches the shared shards.
struct L0Slot {
    cache_id: u64,
    pair: PairKey,
    n: usize,
    epoch: u64,
    plan: Arc<TransferPlan>,
}

/// Direct-mapped thread-local slots (power of two for mask indexing).
const L0_SLOTS: usize = 64;

thread_local! {
    static L0: RefCell<Vec<Option<L0Slot>>> =
        RefCell::new((0..L0_SLOTS).map(|_| None).collect());
}

/// Memoized per-pair candidate paths and datasheet parameters: a cache
/// miss re-solves only the share system instead of re-walking the
/// topology.
struct PairMemo {
    paths: Vec<TransferPath>,
    params: Vec<PathParams>,
}

/// Paths per pair above which size-class realization bails out to an
/// exact solve (stack buffers in the guard are this large; real nodes
/// have ≤ 5 candidate paths per pair).
const MAX_CLASS_PATHS: usize = 16;

/// Algorithm 1 with its configuration cache.
pub struct Planner {
    topo: Arc<Topology>,
    cfg: PlannerConfig,
    cache: PlanCache,
    pairs: ShardedMap<PairKey, Arc<PairMemo>>,
}

impl Planner {
    /// Creates a planner over `topo` with default tunables.
    pub fn new(topo: Arc<Topology>) -> Planner {
        Planner::with_config(topo, PlannerConfig::default())
    }

    /// Creates a planner with explicit tunables.
    pub fn with_config(topo: Arc<Topology>, cfg: PlannerConfig) -> Planner {
        Planner {
            topo,
            cfg,
            cache: PlanCache::new(),
            pairs: ShardedMap::new(),
        }
    }

    /// The topology this planner describes.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topo
    }

    /// The active tunables.
    pub fn config(&self) -> &PlannerConfig {
        &self.cfg
    }

    /// Cache counters (atomic snapshot; never blocks planning).
    pub fn stats(&self) -> PlannerStats {
        self.cache.stats()
    }

    /// The datasheet-parameter plan cache.
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// Forgets everything cached about one device pair — plans, class
    /// entries, and the memoized path set/parameters.
    pub fn invalidate_pair(&self, pair: PairKey) {
        self.pairs.remove(&pair, &pair);
        self.cache.invalidate_pair(pair);
    }

    /// `populate_path_config` (Algorithm 1): the optimal configuration for
    /// an `n`-byte transfer `src → dst` over the paths selected by `sel`.
    pub fn plan(
        &self,
        src: DeviceId,
        dst: DeviceId,
        n: usize,
        sel: PathSelection,
    ) -> Result<Arc<TransferPlan>, TopologyError> {
        let pair: PairKey = (src, dst, sel.max_gpu_staged, sel.host_staged);
        self.plan_in_cache(&self.cache, pair, n, || {
            let memo = self.pair_memo(pair, src, dst, sel)?;
            Ok(self.compute_with_params(n, &memo.paths, memo.params.clone()))
        })
    }

    /// The memoized candidate path set and datasheet parameters of one
    /// pair: only the first plan per pair walks the topology.
    fn pair_memo(
        &self,
        pair: PairKey,
        src: DeviceId,
        dst: DeviceId,
        sel: PathSelection,
    ) -> Result<Arc<PairMemo>, TopologyError> {
        if let Some(m) = self.pairs.get(&pair, &pair) {
            return Ok(m);
        }
        let paths = enumerate_paths_auto(&self.topo, src, dst, sel)?;
        let params = extract_all(&self.topo, &paths)?;
        let memo = Arc::new(PairMemo { paths, params });
        self.pairs.insert(&pair, pair, memo.clone());
        Ok(memo)
    }

    /// The caching engine behind [`Planner::plan`], parameterized over the
    /// cache and the solve: probes `(pair, n)` exactly, then — with
    /// quantization on and `n` above the exact-keying threshold — tries to
    /// realize the pair's cached size-class distribution at `n` (accepted
    /// only within the ε guard, see [`SizeClassConfig`]), and only then
    /// runs `solve` for the full Algorithm-1 answer. Both lookups share
    /// one shard read acquisition, and `solve` is never called on a hit —
    /// the transport's probe/enumerate work stays off the hot path.
    pub fn plan_in_cache(
        &self,
        cache: &PlanCache,
        pair: PairKey,
        n: usize,
        solve: impl FnOnce() -> Result<TransferPlan, TopologyError>,
    ) -> Result<Arc<TransferPlan>, TopologyError> {
        if n == 0 {
            return Err(TopologyError::InvalidLength(0));
        }
        // L0: this thread's own last answer for (cache, pair, n) — no
        // lock, no shared-line traffic beyond the epoch load. The epoch
        // is read *before* any shared state so a concurrent invalidation
        // can only make us conservatively re-probe, never serve stale.
        let idx = crate::cache::fx_hash_of(&(cache.id, pair, n)) as usize & (L0_SLOTS - 1);
        let epoch = cache.epoch.load(Ordering::Acquire);
        let l0_hit = L0.with(|l0| match &l0.borrow()[idx] {
            Some(s) if s.cache_id == cache.id && s.pair == pair && s.n == n && s.epoch == epoch => {
                Some(s.plan.clone())
            }
            _ => None,
        });
        if let Some(plan) = l0_hit {
            CacheCounters::bump(&cache.counters.hits);
            return Ok(plan);
        }

        let sc = self.cfg.size_classes;
        let quantize = sc.enabled && n >= sc.exact_below;
        let exact_key: ExactKey = (pair, n);
        let class_key: Option<ClassKey> = if quantize {
            Some((pair, sc.class_of(n)))
        } else {
            None
        };
        let plan = 'plan: {
            match cache.probe(&exact_key, class_key.as_ref()) {
                Lookup::Exact(hit) => {
                    CacheCounters::bump(&cache.counters.hits);
                    break 'plan hit;
                }
                Lookup::Class(entry) => {
                    if let Some(plan) = self.realize_guarded(&entry, n) {
                        // Not written back to the shared exact table:
                        // realization is cheap and deterministic, and a
                        // sweep of distinct sizes would only churn the
                        // shard; repeats are served by the L0 below.
                        CacheCounters::bump(&cache.counters.class_hits);
                        break 'plan Arc::new(plan);
                    }
                    CacheCounters::bump(&cache.counters.class_fallbacks);
                }
                Lookup::Miss => {}
            }
            CacheCounters::bump(&cache.counters.misses);
            let plan = Arc::new(solve()?);
            let class = class_key.map(|ck| (ck, Arc::new(self.class_entry(&plan))));
            cache.store(exact_key, plan.clone(), class, self.cfg.plans_per_shard);
            plan
        };
        L0.with(|l0| {
            l0.borrow_mut()[idx] = Some(L0Slot {
                cache_id: cache.id,
                pair,
                n,
                epoch,
                plan: plan.clone(),
            })
        });
        Ok(plan)
    }

    /// The uncached Algorithm-1 body, usable with an externally-supplied
    /// candidate set; parameters are extracted from the topology
    /// description.
    pub fn compute(&self, n: usize, paths: &[TransferPath]) -> Result<TransferPlan, TopologyError> {
        if n == 0 {
            return Err(TopologyError::InvalidLength(0));
        }
        let params = extract_all(&self.topo, paths)?;
        Ok(self.compute_with_params(n, paths, params))
    }

    /// The uncached Algorithm-1 body with externally supplied per-path
    /// Hockney parameters — the hook for runtime-calibrated ("probed")
    /// parameters, which is how the paper's Dynamic Path Distribution
    /// obtains them.
    pub fn compute_with_params(
        &self,
        n: usize,
        paths: &[TransferPath],
        mut params: Vec<PathParams>,
    ) -> TransferPlan {
        assert!(n > 0, "cannot plan a zero-byte transfer");
        assert_eq!(paths.len(), params.len(), "one parameter set per path");

        // Line 18: sequential initiation — path i's first chunk cannot
        // launch before the launches of paths 0..i have been issued.
        let launch = self.topo.overheads.copy_launch;
        for (i, p) in params.iter_mut().enumerate() {
            p.first.alpha += launch * i as f64;
        }

        // Lines 16–21: per-path affine coefficients.
        let nf = n as f64;
        let beta_sum: f64 = params.iter().map(|p| p.bottleneck_bandwidth()).sum();
        let ods: Vec<OmegaDelta> = params
            .iter()
            .map(|p| {
                if !p.is_staged() || self.cfg.mode == PipelineMode::Unpipelined {
                    omega_delta_unpipelined(p)
                } else {
                    // Reference share for φ: bandwidth-proportional.
                    let theta_ref = (p.bottleneck_bandwidth() / beta_sum).max(1e-6);
                    let phi = topology_constant(p, theta_ref, nf);
                    omega_delta_pipelined(p, phi)
                }
            })
            .collect();

        // Lines 22–30 with a quantization-aware exclusion loop: the
        // optimizer's affine law assumes continuous chunk counts, but the
        // executed config rounds `k` and enforces the min-chunk-size
        // floor. A path whose share is so small that it ends up with one
        // unpipelinable chunk can overshoot the equalized time and
        // straggle the whole transfer; such paths are dropped (by
        // inflating their fixed cost — the optimizer's natural exclusion
        // mechanism) and the shares re-solved.
        let mut ods = ods;
        let mut best: Option<TransferPlan> = None;
        for _round in 0..paths.len() + 1 {
            // Lines 22–26: optimal shares.
            let sol = optimal_shares(&ods, nf);

            // Lines 27–29: shares → aligned bytes, remainder to the
            // first path (the direct one when it exists).
            let mut bytes = vec![0usize; sol.shares.len()];
            let assigned = quantize_shares(
                &mut bytes,
                sol.shares.iter().copied(),
                n,
                self.cfg.alignment,
            );
            bytes[0] += n - assigned;

            // Chunk counts and exact (quantized) per-path predictions.
            let mut planned = Vec::with_capacity(paths.len());
            let mut worst: Secs = 0.0;
            for (i, ((path, p), share)) in paths.iter().zip(&params).zip(&bytes).enumerate() {
                let (chunks, predicted_time) = self.path_assignment(p, *share, nf);
                worst = worst.max(predicted_time);
                planned.push(PlannedPath {
                    index: i,
                    kind: path.kind,
                    params: *p,
                    theta: *share as f64 / nf,
                    share_bytes: *share,
                    chunks,
                    predicted_time,
                });
            }

            // Straggler check: a non-first active path whose quantized
            // time overshoots the optimizer's equalized target by more
            // than 2% poisons the makespan — drop it and re-solve,
            // keeping the best plan seen so far. At termination either no
            // path overshoots (so the makespan is within 2% of the
            // equalized optimum, which never exceeds the direct-only
            // time) or the best earlier round wins.
            let candidate = TransferPlan {
                n,
                paths: planned,
                predicted_time: worst,
                predicted_bandwidth: nf / worst,
            };
            let candidate_time = candidate.predicted_time;
            if best
                .as_ref()
                .is_none_or(|b| candidate_time < b.predicted_time)
            {
                best = Some(candidate);
            }
            let straggler = best
                .as_ref()
                .expect("just set")
                .paths
                .iter()
                .skip(1)
                .filter(|pp| pp.share_bytes > 0 && pp.index < ods.len())
                .filter(|pp| pp.predicted_time > sol.time * 1.02 + 1e-9)
                .max_by(|a, b| {
                    a.predicted_time
                        .partial_cmp(&b.predicted_time)
                        .expect("finite times")
                })
                .map(|pp| pp.index);
            // Only re-solve if the straggler came from *this* round's
            // plan (otherwise we already improved past it).
            let this_round_straggler =
                if (candidate_time - best.as_ref().expect("set").predicted_time).abs() < 1e-18 {
                    straggler
                } else {
                    None
                };
            match this_round_straggler {
                Some(idx) => {
                    ods[idx] = OmegaDelta {
                        omega: ods[idx].omega,
                        delta: nf * ods[idx].omega + sol.time * 1e3,
                    };
                }
                None => break,
            }
        }
        best.expect("at least one round ran")
    }

    /// Chunk count and model-predicted time of one path given its byte
    /// share — the quantized realization step shared by the full solve
    /// and the size-class shortcut.
    fn path_assignment(&self, p: &PathParams, share: usize, nf: f64) -> (u32, Secs) {
        let theta = share as f64 / nf;
        let chunks = if share == 0 || !p.is_staged() || self.cfg.mode == PipelineMode::Unpipelined {
            1
        } else {
            let by_overhead = chunk_count(p, theta, nf, self.cfg.max_chunks);
            let by_size = (share / self.cfg.min_chunk_bytes.max(1)).max(1) as u32;
            by_overhead.min(by_size)
        };
        let predicted_time = if share == 0 {
            0.0
        } else if p.is_staged() && self.cfg.mode == PipelineMode::Pipelined {
            time_pipelined(p, theta, nf, chunks)
        } else {
            p.time_unpipelined(share as f64)
        };
        (chunks, predicted_time)
    }

    /// Builds the size-class cache entry of a freshly solved plan,
    /// memoizing each path's affine-law coefficients so later
    /// realizations in the class never touch the pipeline math.
    fn class_entry(&self, plan: &TransferPlan) -> ClassEntry {
        let beta_sum: f64 = plan
            .paths
            .iter()
            .map(|pp| pp.params.bottleneck_bandwidth())
            .sum();
        ClassEntry {
            paths: plan
                .paths
                .iter()
                .map(|pp| self.class_path(pp, beta_sum))
                .collect(),
        }
    }

    /// One path's memoized coefficients. For a pipelined staged path the
    /// Eq. 22 law splits by the Eq. 13 bottleneck case into
    /// `Ω = ob + oc·φ`, `Δ = db + dc/φ` with `φ = √(c/θ_ref)/√n` — the
    /// per-chunk cost product `c` is `α·β′` (first-leg-bound) or
    /// `β(ε+α′)` (second-leg-bound), exactly [`topology_constant`]'s
    /// `1/√x_ref`. Direct/unpipelined paths (and the `c = 0`
    /// zero-chunk-cost degenerate, where `dc` vanishes too) are constant:
    /// `oc = dc = phi_scale = 0`.
    fn class_path(&self, pp: &PlannedPath, beta_sum: f64) -> ClassPath {
        let p = pp.params;
        let (ob, oc, db, dc, phi_scale) =
            if p.is_staged() && self.cfg.mode == PipelineMode::Pipelined {
                let second = p.second.expect("staged path has a second leg");
                let theta_ref = (p.bottleneck_bandwidth() / beta_sum).max(1e-6);
                let (ob, oc, db, dc, c) = match bottleneck(&p) {
                    Bottleneck::FirstLeg => (
                        1.0 / p.first.beta,
                        1.0 / second.beta,
                        p.eps + second.alpha,
                        p.first.alpha,
                        p.first.alpha * second.beta,
                    ),
                    Bottleneck::SecondLeg => (
                        1.0 / second.beta,
                        1.0 / p.first.beta,
                        p.first.alpha,
                        p.eps + second.alpha,
                        p.first.beta * (p.eps + second.alpha),
                    ),
                };
                let scale = (c / theta_ref).sqrt();
                if scale.is_finite() && scale > 0.0 {
                    (ob, oc, db, dc, scale)
                } else {
                    // c = 0 (zero per-chunk cost): φ pins to the 1e-12 floor
                    // independently of n, so fold the constant in. `dc` is
                    // zero exactly in this case, keeping Δ finite.
                    let od = omega_delta_pipelined(&p, 1e-12);
                    (od.omega, 0.0, od.delta, 0.0, 0.0)
                }
            } else {
                let od = omega_delta_unpipelined(&p);
                (od.omega, 0.0, od.delta, 0.0, 0.0)
            };
        ClassPath {
            kind: pp.kind,
            params: p,
            theta: pp.theta,
            ob,
            oc,
            db,
            dc,
            phi_scale,
        }
    }

    /// The equalized completion time (Eq. 24's `T`, via the memoized
    /// affine Ω/Δ coefficients) of `entry`'s path set at message size
    /// `nf` — the reference the ε guard compares against. Allocation-free
    /// and a handful of flops per path.
    fn equalized_bound(&self, entry: &ClassEntry, nf: f64) -> f64 {
        let inv_sqrt_n = 1.0 / nf.sqrt();
        let mut ods = [OmegaDelta {
            omega: 1.0,
            delta: 0.0,
        }; MAX_CLASS_PATHS];
        for (od, cp) in ods.iter_mut().zip(&entry.paths) {
            *od = if cp.phi_scale > 0.0 {
                let phi = cp.phi_scale * inv_sqrt_n;
                OmegaDelta {
                    omega: cp.ob + cp.oc * phi,
                    delta: cp.db + cp.dc / phi,
                }
            } else {
                OmegaDelta {
                    omega: cp.ob,
                    delta: cp.db,
                }
            };
        }
        optimal_time(&ods[..entry.paths.len()], nf)
    }

    /// Realizes a cached size-class share distribution at the exact size
    /// `n`: shares → aligned bytes → chunk counts and predicted times,
    /// then the ε guard — the plan is returned only if its makespan stays
    /// within `(1 + ε)` of the equalized-time optimum recomputed for `n`.
    /// `None` means "solve exactly instead".
    fn realize_guarded(&self, entry: &ClassEntry, n: usize) -> Option<TransferPlan> {
        let m = entry.paths.len();
        if m == 0 || m > MAX_CLASS_PATHS {
            return None;
        }
        let nf = n as f64;
        let mut bytes = [0usize; MAX_CLASS_PATHS];
        let assigned = quantize_shares(
            &mut bytes[..m],
            entry.paths.iter().map(|cp| cp.theta),
            n,
            self.cfg.alignment,
        );
        if assigned > n {
            // Floating-point overshoot (θ sums above 1 by rounding residue):
            // bail out rather than hand out more bytes than the message has.
            return None;
        }
        bytes[0] += n - assigned;

        let mut planned = Vec::with_capacity(m);
        let mut worst: Secs = 0.0;
        for (i, (cp, share)) in entry.paths.iter().zip(&bytes).enumerate() {
            let (chunks, predicted_time) = self.path_assignment(&cp.params, *share, nf);
            worst = worst.max(predicted_time);
            planned.push(PlannedPath {
                index: i,
                kind: cp.kind,
                params: cp.params,
                theta: *share as f64 / nf,
                share_bytes: *share,
                chunks,
                predicted_time,
            });
        }

        let bound = self.equalized_bound(entry, nf);
        if !(bound.is_finite() && bound > 0.0)
            || worst > bound * (1.0 + self.cfg.size_classes.epsilon) + 1e-12
        {
            return None;
        }
        Some(TransferPlan {
            n,
            paths: planned,
            predicted_time: worst,
            predicted_bandwidth: nf / worst,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpx_topo::presets;
    use mpx_topo::units::MIB;

    fn planner(topo: Topology) -> Planner {
        Planner::new(Arc::new(topo))
    }

    fn beluga_plan(n: usize, sel: PathSelection) -> Arc<TransferPlan> {
        let p = planner(presets::beluga());
        let gpus = p.topology().gpus();
        p.plan(gpus[0], gpus[1], n, sel).unwrap()
    }

    #[test]
    fn all_bytes_are_assigned() {
        for n in [4096, 2 * MIB, 64 * MIB + 7, 512 * MIB] {
            let plan = beluga_plan(n, PathSelection::THREE_GPUS_WITH_HOST);
            let total: usize = plan.paths.iter().map(|p| p.share_bytes).sum();
            assert_eq!(total, n, "n = {n}");
        }
    }

    #[test]
    fn non_direct_shares_are_aligned() {
        let plan = beluga_plan(64 * MIB + 3, PathSelection::THREE_GPUS_WITH_HOST);
        for p in &plan.paths[1..] {
            assert_eq!(p.share_bytes % 4, 0, "path {} misaligned", p.index);
        }
    }

    #[test]
    fn direct_only_plan_is_trivial() {
        let plan = beluga_plan(16 * MIB, PathSelection::DIRECT_ONLY);
        assert_eq!(plan.paths.len(), 1);
        assert_eq!(plan.paths[0].share_bytes, 16 * MIB);
        assert_eq!(plan.paths[0].chunks, 1);
    }

    #[test]
    fn large_messages_use_all_four_paths() {
        let plan = beluga_plan(256 * MIB, PathSelection::THREE_GPUS_WITH_HOST);
        assert_eq!(plan.active_path_count(), 4);
        // Host path exists but carries the least.
        let host = plan.paths.last().unwrap();
        for p in &plan.paths[..3] {
            assert!(p.share_bytes > host.share_bytes);
        }
    }

    #[test]
    fn small_messages_collapse_to_direct() {
        let plan = beluga_plan(8 << 10, PathSelection::THREE_GPUS_WITH_HOST);
        assert_eq!(
            plan.active_path_count(),
            1,
            "8 KiB should ride the direct path only: {:?}",
            plan.paths
                .iter()
                .map(|p| (p.index, p.share_bytes))
                .collect::<Vec<_>>()
        );
        assert_eq!(plan.paths[0].share_bytes, 8 << 10);
    }

    #[test]
    fn predicted_bandwidth_grows_with_paths() {
        let n = 256 * MIB;
        let direct = beluga_plan(n, PathSelection::DIRECT_ONLY);
        let two = beluga_plan(n, PathSelection::TWO_GPUS);
        let three = beluga_plan(n, PathSelection::THREE_GPUS);
        let four = beluga_plan(n, PathSelection::THREE_GPUS_WITH_HOST);
        assert!(two.predicted_bandwidth > direct.predicted_bandwidth * 1.5);
        assert!(three.predicted_bandwidth > two.predicted_bandwidth);
        assert!(four.predicted_bandwidth > three.predicted_bandwidth);
        // Headline shape: ~3x for 3 GPU paths + host on Beluga.
        let speedup = four.predicted_bandwidth / direct.predicted_bandwidth;
        assert!(
            (2.5..3.6).contains(&speedup),
            "speedup {speedup} out of the expected band"
        );
    }

    #[test]
    fn staged_paths_get_multiple_chunks_for_large_messages() {
        let plan = beluga_plan(256 * MIB, PathSelection::THREE_GPUS);
        for p in &plan.paths[1..] {
            assert!(p.chunks > 1, "path {} should pipeline, got k=1", p.index);
        }
        assert_eq!(plan.paths[0].chunks, 1, "direct path never chunks");
    }

    #[test]
    fn chunk_size_floor_respected() {
        let p = planner(presets::beluga());
        let gpus = p.topology().gpus();
        let plan = p
            .plan(gpus[0], gpus[1], 4 * MIB, PathSelection::THREE_GPUS)
            .unwrap();
        for pp in plan.active_paths() {
            if pp.index > 0 {
                let chunk = pp.share_bytes / pp.chunks as usize;
                assert!(
                    chunk >= p.config().min_chunk_bytes || pp.chunks == 1,
                    "path {}: chunk {} below floor",
                    pp.index,
                    chunk
                );
            }
        }
    }

    #[test]
    fn cache_hits_on_repeat_plans() {
        let p = planner(presets::beluga());
        let gpus = p.topology().gpus();
        let a = p
            .plan(gpus[0], gpus[1], 2 * MIB, PathSelection::TWO_GPUS)
            .unwrap();
        let b = p
            .plan(gpus[0], gpus[1], 2 * MIB, PathSelection::TWO_GPUS)
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(
            p.stats(),
            PlannerStats {
                hits: 1,
                misses: 1,
                ..Default::default()
            }
        );
    }

    /// Regression guard for the atomic-counter redesign: a stats
    /// snapshot must not touch the shard locks. Holding every shard's
    /// write lock while snapshotting would deadlock (parking_lot locks
    /// are not reentrant) if `stats()` ever went back to reading
    /// counters from under the maps — failing the suite by timeout.
    #[test]
    fn stats_snapshot_never_touches_shard_locks() {
        let p = planner(presets::beluga());
        let gpus = p.topology().gpus();
        p.plan(gpus[0], gpus[1], 2 * MIB, PathSelection::TWO_GPUS)
            .unwrap();
        let _guards: Vec<_> = p.cache.shards.iter().map(|s| s.write()).collect();
        let s = p.stats();
        assert_eq!((s.hits, s.misses), (0, 1));
    }

    #[test]
    fn cache_distinguishes_sizes_and_selections() {
        let p = planner(presets::beluga());
        let gpus = p.topology().gpus();
        p.plan(gpus[0], gpus[1], 2 * MIB, PathSelection::TWO_GPUS)
            .unwrap();
        p.plan(gpus[0], gpus[1], 4 * MIB, PathSelection::TWO_GPUS)
            .unwrap();
        p.plan(gpus[0], gpus[1], 2 * MIB, PathSelection::THREE_GPUS)
            .unwrap();
        assert_eq!(p.stats().misses, 3);
    }

    #[test]
    fn unpipelined_mode_prediction_is_slower() {
        let topo = Arc::new(presets::beluga());
        let gpus = topo.gpus();
        let piped = Planner::new(topo.clone())
            .plan(gpus[0], gpus[1], 256 * MIB, PathSelection::THREE_GPUS)
            .unwrap();
        let unpiped = Planner::with_config(
            topo,
            PlannerConfig {
                mode: PipelineMode::Unpipelined,
                ..PlannerConfig::default()
            },
        )
        .plan(gpus[0], gpus[1], 256 * MIB, PathSelection::THREE_GPUS)
        .unwrap();
        assert!(piped.predicted_time < unpiped.predicted_time);
    }

    #[test]
    fn narval_host_share_smaller_than_beluga_host_share() {
        // Observation 3: Narval's NUMA layout makes its host path weaker.
        let host_share = |topo: Topology| {
            let p = planner(topo);
            let gpus = p.topology().gpus();
            let plan = p
                .plan(
                    gpus[0],
                    gpus[1],
                    256 * MIB,
                    PathSelection::THREE_GPUS_WITH_HOST,
                )
                .unwrap();
            plan.paths.last().unwrap().theta
        };
        let beluga = host_share(presets::beluga());
        let narval = host_share(presets::narval());
        assert!(
            narval < beluga,
            "narval host share {narval} should trail beluga {beluga}"
        );
    }

    #[test]
    fn plan_rejects_non_gpu_endpoints() {
        let p = planner(presets::beluga());
        let hm = p.topology().host_memories()[0];
        let g0 = p.topology().gpus()[0];
        assert!(p.plan(hm, g0, MIB, PathSelection::DIRECT_ONLY).is_err());
    }

    #[test]
    fn zero_byte_plan_is_a_typed_error() {
        let p = planner(presets::beluga());
        let gpus = p.topology().gpus();
        let err = TopologyError::InvalidLength(0);
        let planned = p.plan(gpus[0], gpus[1], 0, PathSelection::DIRECT_ONLY);
        assert_eq!(planned.unwrap_err(), err);
        let paths = enumerate_paths_auto(p.topology(), gpus[0], gpus[1], PathSelection::THREE_GPUS);
        assert_eq!(p.compute(0, &paths.unwrap()).unwrap_err(), err);
    }

    #[test]
    fn windowed_bandwidth_amortizes_fixed_costs() {
        let plan = beluga_plan(2 * MIB, PathSelection::THREE_GPUS);
        let w1 = plan.predicted_windowed_bandwidth(1);
        let w16 = plan.predicted_windowed_bandwidth(16);
        assert!((w1 - plan.predicted_bandwidth).abs() < 1e-3 * w1);
        assert!(w16 > w1, "window must raise small-message bandwidth");
        // Bounded by the streaming asymptote.
        let asymptote = plan.n as f64
            / plan
                .paths
                .iter()
                .filter(|p| p.share_bytes > 0)
                .map(|p| p.predicted_time - p.params.delta_unpipelined())
                .fold(0.0f64, f64::max);
        assert!(w16 <= asymptote * 1.001);
    }

    #[test]
    fn windowed_bandwidth_matters_less_for_large_messages() {
        let small = beluga_plan(2 * MIB, PathSelection::THREE_GPUS);
        let large = beluga_plan(256 * MIB, PathSelection::THREE_GPUS);
        let lift = |p: &TransferPlan| {
            p.predicted_windowed_bandwidth(16) / p.predicted_windowed_bandwidth(1)
        };
        assert!(lift(&small) > lift(&large));
        assert!(lift(&large) < 1.01, "256 MB is latency-insensitive");
    }

    fn quantizing_planner(topo: Topology) -> Planner {
        Planner::with_config(
            Arc::new(topo),
            PlannerConfig {
                size_classes: SizeClassConfig::ENABLED,
                ..PlannerConfig::default()
            },
        )
    }

    #[test]
    fn size_classes_are_geometric() {
        let sc = SizeClassConfig::ENABLED;
        // Same octave, same quarter → same class.
        assert_eq!(sc.class_of(16 * MIB), sc.class_of(16 * MIB + 4096));
        // A doubling advances by `per_octave` classes.
        assert_eq!(sc.class_of(32 * MIB), sc.class_of(16 * MIB) + sc.per_octave);
    }

    #[test]
    fn nearby_sizes_share_one_solve() {
        let p = quantizing_planner(presets::beluga());
        let gpus = p.topology().gpus();
        let a = p
            .plan(gpus[0], gpus[1], 64 * MIB, PathSelection::THREE_GPUS)
            .unwrap();
        // A size in the same class: realized from the class entry, not
        // re-solved.
        let n2 = 64 * MIB + 8192;
        let b = p
            .plan(gpus[0], gpus[1], n2, PathSelection::THREE_GPUS)
            .unwrap();
        let stats = p.stats();
        assert_eq!(stats.misses, 1, "{stats:?}");
        assert_eq!(stats.class_hits, 1, "{stats:?}");
        // The realized plan is exact in the ways that matter: every byte
        // assigned, and predicted time within ε of the exact solve.
        assert_eq!(b.paths.iter().map(|pp| pp.share_bytes).sum::<usize>(), n2);
        let exact = Planner::new(p.topology().clone())
            .plan(gpus[0], gpus[1], n2, PathSelection::THREE_GPUS)
            .unwrap();
        let eps = p.config().size_classes.epsilon;
        assert!(
            b.predicted_time <= exact.predicted_time * (1.0 + eps) + 1e-12,
            "quantized {} vs exact {}",
            b.predicted_time,
            exact.predicted_time
        );
        assert!(a.predicted_time > 0.0);
    }

    #[test]
    fn small_messages_keep_exact_keys() {
        let p = quantizing_planner(presets::beluga());
        let gpus = p.topology().gpus();
        let below = p.config().size_classes.exact_below;
        p.plan(gpus[0], gpus[1], below / 2, PathSelection::THREE_GPUS)
            .unwrap();
        p.plan(gpus[0], gpus[1], below / 2 + 64, PathSelection::THREE_GPUS)
            .unwrap();
        let stats = p.stats();
        assert_eq!(stats.misses, 2, "{stats:?}");
        assert_eq!(stats.class_hits, 0, "{stats:?}");
    }

    #[test]
    fn quantization_off_by_default() {
        let p = planner(presets::beluga());
        let gpus = p.topology().gpus();
        p.plan(gpus[0], gpus[1], 64 * MIB, PathSelection::THREE_GPUS)
            .unwrap();
        p.plan(gpus[0], gpus[1], 64 * MIB + 8192, PathSelection::THREE_GPUS)
            .unwrap();
        let stats = p.stats();
        assert_eq!(stats.misses, 2, "exact keying must re-solve: {stats:?}");
        assert_eq!(stats.class_hits, 0);
    }

    #[test]
    fn invalidate_pair_forgets_only_that_pair() {
        let p = planner(presets::beluga());
        let gpus = p.topology().gpus();
        let a1 = p
            .plan(gpus[0], gpus[1], 2 * MIB, PathSelection::TWO_GPUS)
            .unwrap();
        let b1 = p
            .plan(gpus[0], gpus[2], 2 * MIB, PathSelection::TWO_GPUS)
            .unwrap();
        let sel = PathSelection::TWO_GPUS;
        p.invalidate_pair((gpus[0], gpus[1], sel.max_gpu_staged, sel.host_staged));
        let a2 = p
            .plan(gpus[0], gpus[1], 2 * MIB, PathSelection::TWO_GPUS)
            .unwrap();
        let b2 = p
            .plan(gpus[0], gpus[2], 2 * MIB, PathSelection::TWO_GPUS)
            .unwrap();
        assert!(!Arc::ptr_eq(&a1, &a2), "invalidated pair must re-solve");
        assert!(Arc::ptr_eq(&b1, &b2), "other pair must stay cached");
        let stats = p.stats();
        assert_eq!(stats.invalidations, 1);
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn theta_distribution_shifts_with_message_size() {
        // Fig. 4's qualitative shape: the direct share shrinks toward its
        // asymptote as n grows, staged shares grow.
        let direct_theta = |n: usize| beluga_plan(n, PathSelection::THREE_GPUS).paths[0].theta;
        let small = direct_theta(2 * MIB);
        let large = direct_theta(512 * MIB);
        assert!(
            small > large,
            "direct share should shrink: {small} -> {large}"
        );
        assert!(large > 0.3, "direct keeps the largest share: {large}");
    }
}
