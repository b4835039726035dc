//! The simulated endpoint fleet.
//!
//! Batched collection runs on a *persistent* worker pool with a
//! work-stealing run queue (see DESIGN.md "Fleet architecture"): workers
//! are created once per [`SimulatedFleet`], each batch publishes a
//! pre-materialized descriptor array split into per-executor deques,
//! executors pop their own range and steal from others when empty, and
//! results land in pre-sized per-slot output cells — no results lock, no
//! scratch-pool lock, no post-hoc sort. Expensive state is thread-local
//! for the worker's lifetime (VM scratch, PT buffer pool, decode-cache
//! shard, deferred metric accumulators); cross-worker sharing happens only
//! at batch boundaries via epoch-published decode-cache snapshots.

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use gist_core::{ClientRunData, Fleet};
use gist_ir::Program;
use gist_obs::json::Json;
use gist_obs::HistogramSnapshot;
use gist_pt::{BufferPool, DecodeCache, DecodeCacheShard};
use gist_tracking::{CompiledPatch, InstrumentationPatch, TrackerRuntime};
use gist_vm::{CompiledProgram, RunOutcome, Vm, VmConfig, VmScratch};

/// Fleet configuration.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Number of simulated endpoints (the paper used 1,136).
    pub endpoints: u32,
    /// Virtual cores per endpoint machine.
    pub num_cores: u32,
    /// Collect runs in parallel batches of this size on the persistent
    /// worker pool (1 = sequential, no pool). Determinism per run is
    /// unaffected: seeds are assigned before dispatch.
    pub batch: usize,
    /// Worker threads backing the pool. The dispatching thread always
    /// participates as executor 0, so total parallelism is `workers + 1`.
    /// `None` derives from [`std::thread::available_parallelism`] (cores −
    /// 1); `Some(n)` forces exactly `n` threads — tests use this to
    /// exercise real cross-thread stealing even on small machines. Either
    /// way the count is capped at `batch − 1` (more executors than runs
    /// per batch would only idle).
    pub workers: Option<usize>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            endpoints: 64,
            num_cores: 4,
            batch: 1,
            workers: None,
        }
    }
}

/// Worker threads the machine supports beyond the dispatching thread.
fn machine_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .saturating_sub(1)
}

/// A fixed log₂ histogram with the same bucket layout as
/// [`gist_obs::Histogram`], but plain (non-atomic) and fleet-local:
/// contention statistics are scheduling-dependent, so they must never
/// enter the global metric registry (whose counter/histogram snapshots
/// are part of the determinism contract).
#[derive(Clone, Debug)]
struct LocalHist {
    buckets: [u64; gist_obs::NUM_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LocalHist {
    fn default() -> Self {
        LocalHist {
            buckets: [0; gist_obs::NUM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl LocalHist {
    fn record(&mut self, v: u64) {
        self.buckets[gist_obs::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(i, &n)| (gist_obs::bucket_floor(i), n))
            .collect();
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            max: self.max,
            buckets,
        }
    }
}

/// Cumulative per-executor contention statistics (executor 0 is the
/// dispatching thread). Harvested via [`SimulatedFleet::contention_stats`]
/// and emitted into the BENCH report's throughput section.
#[derive(Clone, Debug, Default)]
pub struct WorkerStats {
    /// Runs this executor completed.
    pub runs: u64,
    /// Batches this executor participated in.
    pub batches: u64,
    /// Descriptors stolen from other executors' deques.
    pub steals: u64,
    /// Decode-shard probes answered from the snapshot or fresh map.
    pub shard_hits: u64,
    /// Decode-shard probes that fell through to a cold decode.
    pub shard_misses: u64,
    /// Per-batch steal counts.
    steal_hist: LocalHist,
    /// Per-batch idle microseconds waiting for work to arrive.
    wait_hist: LocalHist,
}

impl WorkerStats {
    /// Distribution of steals per batch.
    pub fn steal_hist(&self) -> HistogramSnapshot {
        self.steal_hist.snapshot()
    }

    /// Distribution of queue-empty wait times per batch, in microseconds.
    pub fn wait_hist(&self) -> HistogramSnapshot {
        self.wait_hist.snapshot()
    }

    fn absorb_batch(&mut self, local: &BatchLocal, waited_us: u64) {
        self.runs += local.runs;
        self.batches += 1;
        self.steals += local.steals;
        self.shard_hits += local.shard_hits;
        self.shard_misses += local.shard_misses;
        self.steal_hist.record(local.steals);
        self.wait_hist.record(waited_us);
    }

    fn to_value(&self) -> Json {
        let probes = self.shard_hits + self.shard_misses;
        let hit_ratio = if probes == 0 {
            0.0
        } else {
            self.shard_hits as f64 / probes as f64
        };
        Json::Obj(vec![
            ("runs".into(), Json::U64(self.runs)),
            ("batches".into(), Json::U64(self.batches)),
            ("steals".into(), Json::U64(self.steals)),
            ("shard_hits".into(), Json::U64(self.shard_hits)),
            ("shard_misses".into(), Json::U64(self.shard_misses)),
            ("shard_hit_ratio".into(), Json::F64(hit_ratio)),
            ("steal_hist".into(), self.steal_hist.snapshot().to_value()),
            ("wait_us_hist".into(), self.wait_hist.snapshot().to_value()),
        ])
    }
}

/// Contention statistics for every executor of a fleet, in executor order
/// (index 0 = the dispatching thread).
#[derive(Clone, Debug, Default)]
pub struct FleetStats {
    /// One entry per executor.
    pub workers: Vec<WorkerStats>,
}

impl FleetStats {
    /// Renders for the BENCH report's throughput section. Contention data
    /// is scheduling-dependent by nature, so it belongs next to the timing
    /// numbers, never in the deterministic metrics section.
    pub fn to_value(&self) -> Json {
        Json::Obj(vec![
            (
                "steals".into(),
                Json::U64(self.workers.iter().map(|w| w.steals).sum()),
            ),
            (
                "shard_hits".into(),
                Json::U64(self.workers.iter().map(|w| w.shard_hits).sum()),
            ),
            (
                "shard_misses".into(),
                Json::U64(self.workers.iter().map(|w| w.shard_misses).sum()),
            ),
            (
                "workers".into(),
                Json::Arr(self.workers.iter().map(WorkerStats::to_value).collect()),
            ),
        ])
    }
}

/// Per-batch, per-executor tallies, merged into [`WorkerStats`] at batch
/// end (plain fields on the executor's stack — nothing shared).
#[derive(Default)]
struct BatchLocal {
    runs: u64,
    steals: u64,
    shard_hits: u64,
    shard_misses: u64,
}

/// State an executor keeps across batches: recycled VM scratch, a private
/// PT buffer pool, and a decode-cache shard warmed from the shared
/// epoch-published snapshot. All of it is single-owner — the hot loop
/// acquires no locks.
struct ExecutorCtx {
    scratch: VmScratch,
    shard: DecodeCacheShard,
    buffer_pool: Arc<BufferPool>,
}

impl ExecutorCtx {
    fn new(cache: &DecodeCache) -> Self {
        ExecutorCtx {
            scratch: VmScratch::default(),
            shard: cache.shard(),
            buffer_pool: Arc::new(BufferPool::new()),
        }
    }
}

/// One run descriptor index deque: a contiguous range of the batch's
/// descriptor array, packed `head << 32 | tail`. The owner pops at `head`,
/// thieves pop at `tail − 1`; both CAS the same word, and since `head`
/// only grows and `tail` only shrinks there is no ABA.
struct Deque(AtomicU64);

impl Deque {
    fn new(head: u32, tail: u32) -> Self {
        Deque(AtomicU64::new((u64::from(head) << 32) | u64::from(tail)))
    }

    fn unpack(v: u64) -> (u32, u32) {
        ((v >> 32) as u32, v as u32)
    }

    /// Owner pop from the front; `None` when empty.
    fn pop_front(&self) -> Option<usize> {
        let mut v = self.0.load(Ordering::Relaxed);
        loop {
            let (h, t) = Self::unpack(v);
            if h >= t {
                return None;
            }
            let next = (u64::from(h + 1) << 32) | u64::from(t);
            match self
                .0
                .compare_exchange_weak(v, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return Some(h as usize),
                Err(cur) => v = cur,
            }
        }
    }

    /// Thief pop from the back; `None` when empty.
    fn steal_back(&self) -> Option<usize> {
        let mut v = self.0.load(Ordering::Relaxed);
        loop {
            let (h, t) = Self::unpack(v);
            if h >= t {
                return None;
            }
            let next = (u64::from(h) << 32) | u64::from(t - 1);
            match self
                .0
                .compare_exchange_weak(v, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return Some((t - 1) as usize),
                Err(cur) => v = cur,
            }
        }
    }
}

/// Pre-sized per-run output cells. Each slot is written by exactly one
/// executor (the one whose deque pop claimed that index) and read by the
/// dispatching thread only after every executor has finished the batch,
/// so batch output order is deterministic by construction — no results
/// lock, no sort.
struct Slots(Vec<UnsafeCell<Option<ClientRunData>>>);

// SAFETY: slot `i` is accessed mutably only by the single executor that
// claimed index `i` via the deque CAS; the dispatching thread reads slots
// only after `BatchJob::remaining` reaches zero, whose Release decrements
// / Acquire load order every slot write before every slot read.
unsafe impl Sync for Slots {}

impl Slots {
    fn new(n: usize) -> Self {
        Slots((0..n).map(|_| UnsafeCell::new(None)).collect())
    }

    /// SAFETY: caller must have claimed index `i` from a deque.
    unsafe fn put(&self, i: usize, run: ClientRunData) {
        *self.0[i].get() = Some(run);
    }

    /// SAFETY: caller must be the dispatching thread, after batch completion.
    unsafe fn take(&self, i: usize) -> Option<ClientRunData> {
        (*self.0[i].get()).take()
    }
}

/// One published batch: the descriptor array, per-executor deques over it,
/// and the output slots.
struct BatchJob {
    /// `(run id, workload seed)`, in run-id order.
    descriptors: Vec<(u64, u64)>,
    patch: Arc<CompiledPatch>,
    /// Span parent for worker spans (typically `server.collect`).
    parent: gist_obs::SpanHandle,
    /// One deque per executor; executor `k` owns `deques[k]`.
    deques: Vec<Deque>,
    slots: Slots,
    /// Worker threads still executing this batch (the dispatching thread
    /// is not counted — it runs inline and then waits for zero).
    remaining: AtomicUsize,
}

impl BatchJob {
    /// Claims the next descriptor index for executor `me`: own deque
    /// first, then steal round-robin. `None` means the batch is drained —
    /// descriptors are fully materialized at publish, so an all-empty scan
    /// is conclusive.
    fn claim(&self, me: usize, local: &mut BatchLocal) -> Option<usize> {
        if let Some(i) = self.deques[me].pop_front() {
            return Some(i);
        }
        let n = self.deques.len();
        for off in 1..n {
            if let Some(i) = self.deques[(me + off) % n].steal_back() {
                local.steals += 1;
                return Some(i);
            }
        }
        None
    }
}

/// State shared between the dispatching thread and the pool workers.
struct PoolShared {
    /// Owned clone of the fleet's program: worker threads are `'static`,
    /// so they cannot borrow the caller's `&Program`. `CompiledProgram`
    /// is interned by fingerprint, so the clone shares the compilation.
    program: Arc<Program>,
    compiled: Arc<CompiledProgram>,
    decode_cache: Arc<DecodeCache>,
    make_config: fn(u64) -> VmConfig,
    num_cores: u32,
    state: Mutex<PoolState>,
    /// Signaled when a new batch epoch is published (or shutdown).
    work_ready: Condvar,
    /// Signaled by the last worker finishing a batch.
    work_done: Condvar,
    /// Cumulative stats for worker executors 1..=N, locked once per
    /// worker per batch (off the per-run path).
    worker_stats: Mutex<Vec<WorkerStats>>,
}

struct PoolState {
    /// Bumped per published batch; workers latch it to detect new work.
    epoch: u64,
    job: Option<Arc<BatchJob>>,
    shutdown: bool,
    /// A worker executor panicked; surfaced on the dispatching thread.
    panicked: bool,
}

impl PoolShared {
    fn lock_state(&self) -> std::sync::MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The persistent worker pool of one fleet.
struct FleetPool {
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Drop for FleetPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.lock_state();
            st.shutdown = true;
            self.shared.work_ready.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Body of one pool worker thread.
fn worker_loop(shared: Arc<PoolShared>, exec_idx: usize) {
    let mut ctx = ExecutorCtx::new(&shared.decode_cache);
    let mut seen_epoch = 0u64;
    loop {
        let wait_start = Instant::now();
        let job = {
            let mut st = shared.lock_state();
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen_epoch {
                    if let Some(job) = &st.job {
                        seen_epoch = st.epoch;
                        break Arc::clone(job);
                    }
                }
                st = shared
                    .work_ready
                    .wait(st)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        let waited_us = wait_start.elapsed().as_micros() as u64;
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_executor(&shared, &job, exec_idx, &mut ctx)
        }));
        match outcome {
            Ok(local) => {
                let mut stats = shared
                    .worker_stats
                    .lock()
                    .unwrap_or_else(|e| e.into_inner());
                stats[exec_idx - 1].absorb_batch(&local, waited_us);
            }
            Err(_) => {
                // The executor context may be mid-run garbage; rebuild it.
                ctx = ExecutorCtx::new(&shared.decode_cache);
                shared.lock_state().panicked = true;
            }
        }
        // Decrement only after every side effect (slots, absorbed shard,
        // flushed metrics and journal) has landed: the dispatching
        // thread's Acquire load of `remaining` then orders them all
        // before result collection.
        if job.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _st = shared.lock_state();
            shared.work_done.notify_all();
        }
    }
}

/// Executes one batch's worth of claims as executor `exec_idx`. Shared by
/// pool workers and the dispatching thread (executor 0). On return, all
/// of this executor's side effects are globally visible: fresh decode
/// segments absorbed and re-published, deferred metrics flushed, journal
/// events in the global sink.
fn run_executor(
    shared: &PoolShared,
    job: &BatchJob,
    exec_idx: usize,
    ctx: &mut ExecutorCtx,
) -> BatchLocal {
    let mut local = BatchLocal::default();
    {
        // One defer guard and one worker span per batch, not per run:
        // metric recording buffers locally and the span registry is
        // touched once.
        let _defer = gist_obs::defer_metrics();
        let _span = gist_obs::span_under(&job.parent, "fleet.worker");
        ctx.shard.refresh(&shared.decode_cache);
        while let Some(i) = job.claim(exec_idx, &mut local) {
            let (id, seed) = job.descriptors[i];
            let run = execute_one(
                &shared.program,
                &shared.compiled,
                shared.make_config,
                shared.num_cores,
                ctx,
                &job.patch,
                id,
                seed,
            );
            // SAFETY: `claim` hands out each index exactly once.
            unsafe { job.slots.put(i, run) };
            local.runs += 1;
        }
    }
    shared.decode_cache.absorb(&mut ctx.shard);
    local.shard_hits = ctx.shard.hits();
    local.shard_misses = ctx.shard.misses();
    ctx.shard.reset_stats();
    // Batch boundary: persistent workers outlive many batches, so their
    // thread-exit flush comes far too late — push buffered events into
    // the journal ring here so the dispatching thread's drain (and any
    // `drain_since` cursor tailing the diagnosis) sees this batch.
    gist_obs::journal::flush_local();
    local
}

/// Executes one run. All expensive state comes from the executor context:
/// recycled scratch, private buffer pool, lock-free decode shard.
#[allow(clippy::too_many_arguments)]
fn execute_one(
    program: &Program,
    compiled: &Arc<CompiledProgram>,
    make_config: fn(u64) -> VmConfig,
    num_cores: u32,
    ctx: &mut ExecutorCtx,
    patch: &Arc<CompiledPatch>,
    run_id: u64,
    seed: u64,
) -> ClientRunData {
    gist_obs::event!(RunStarted { run: run_id, seed });
    let mut cfg = make_config(seed);
    cfg.num_cores = num_cores;
    let mut tracker = TrackerRuntime::with_compiled_patch(program, Arc::clone(patch), num_cores)
        .with_decode_shard(&mut ctx.shard)
        .with_buffer_pool(Arc::clone(&ctx.buffer_pool));
    let scratch = std::mem::take(&mut ctx.scratch);
    let mut vm = Vm::with_scratch(program, Arc::clone(compiled), cfg, scratch);
    let result = vm.run(&mut [&mut tracker]);
    let data = ClientRunData {
        run_id,
        outcome: match result.outcome {
            RunOutcome::Failed(r) => Some(r),
            RunOutcome::Finished => None,
        },
        trace: tracker.finish(),
        retired: result.steps,
    };
    gist_obs::event!(RunFinished {
        run: run_id,
        failing: data.outcome.is_some(),
        retired: result.steps,
        hits: data.trace.hits.len() as u64,
    });
    ctx.scratch = vm.into_scratch();
    data
}

/// A fleet of simulated endpoints executing one program under a seeded
/// workload. Implements [`Fleet`] for the Gist server.
pub struct SimulatedFleet<'p> {
    program: &'p Program,
    make_config: fn(u64) -> VmConfig,
    config: FleetConfig,
    compiled: Arc<CompiledProgram>,
    /// Memoized PT decode segments; shards publish into it at batch end.
    decode_cache: Arc<DecodeCache>,
    /// Executor-0 state (the dispatching thread), used by both the
    /// sequential path and pooled batches.
    main_ctx: ExecutorCtx,
    main_stats: WorkerStats,
    /// Lazily created on the first batched refill.
    pool: Option<FleetPool>,
    /// Next run index (also drives endpoint choice and seeds).
    next_run: u64,
    /// Prefetched runs for the currently shipped patch.
    buffer: VecDeque<ClientRunData>,
    /// The currently shipped patch, lowered once for all its runs; the
    /// buffer holds runs produced under it.
    patch: Option<Arc<CompiledPatch>>,
    /// Server's advisory prefetch ceiling (see
    /// [`Fleet::hint_runs_remaining`]).
    hint_remaining: Option<u64>,
    /// Total runs executed.
    pub runs: u64,
    /// Runs that failed (any failure).
    pub failing_runs: u64,
}

impl<'p> SimulatedFleet<'p> {
    /// Creates a fleet executing `program` with the given seeded workload.
    /// The program is compiled here, once, before any run dispatches.
    /// Worker threads spawn lazily on the first batched refill.
    pub fn new(
        program: &'p Program,
        make_config: fn(u64) -> VmConfig,
        config: FleetConfig,
    ) -> Self {
        let compiled = CompiledProgram::shared(program);
        let decode_cache = Arc::new(DecodeCache::new());
        let main_ctx = ExecutorCtx::new(&decode_cache);
        SimulatedFleet {
            program,
            make_config,
            config,
            compiled,
            decode_cache,
            main_ctx,
            main_stats: WorkerStats::default(),
            pool: None,
            next_run: 0,
            buffer: VecDeque::new(),
            patch: None,
            hint_remaining: None,
            runs: 0,
            failing_runs: 0,
        }
    }

    /// Creates a fleet for a bugbase bug.
    pub fn for_bug(bug: &'p gist_bugbase::BugSpec, config: FleetConfig) -> Self {
        Self::new(&bug.program, bug.make_config, config)
    }

    /// The workload seed of run `n`: endpoints interleave round-robin and
    /// each endpoint has its own seed stream, so adding endpoints changes
    /// *which* machine sees a failure but not reproducibility.
    fn seed_of(&self, n: u64) -> u64 {
        let endpoint = n % u64::from(self.config.endpoints.max(1));
        let local = n / u64::from(self.config.endpoints.max(1));
        endpoint.wrapping_mul(1_000_003).wrapping_add(local)
    }

    /// Cumulative contention statistics per executor (index 0 = the
    /// dispatching thread). Scheduling-dependent — reported next to
    /// throughput numbers, never in the deterministic metrics section.
    pub fn contention_stats(&self) -> FleetStats {
        let mut workers = vec![self.main_stats.clone()];
        if let Some(pool) = &self.pool {
            workers.extend(
                pool.shared
                    .worker_stats
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .iter()
                    .cloned(),
            );
        }
        FleetStats { workers }
    }

    /// Worker threads backing this fleet's pool (0 before the first
    /// batched refill or on a sequential fleet).
    pub fn pool_workers(&self) -> usize {
        self.pool.as_ref().map_or(0, |p| p.handles.len())
    }

    /// Spawns the persistent pool on first use.
    fn ensure_pool(&mut self) {
        if self.pool.is_some() {
            return;
        }
        let threads = self
            .config
            .workers
            .unwrap_or_else(machine_workers)
            .min(self.config.batch.saturating_sub(1));
        let shared = Arc::new(PoolShared {
            program: Arc::new(self.program.clone()),
            compiled: Arc::clone(&self.compiled),
            decode_cache: Arc::clone(&self.decode_cache),
            make_config: self.make_config,
            num_cores: self.config.num_cores,
            state: Mutex::new(PoolState {
                epoch: 0,
                job: None,
                shutdown: false,
                panicked: false,
            }),
            work_ready: Condvar::new(),
            work_done: Condvar::new(),
            worker_stats: Mutex::new(vec![WorkerStats::default(); threads]),
        });
        let handles = (1..=threads)
            .map(|exec_idx| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("fleet-worker-{exec_idx}"))
                    .spawn(move || worker_loop(shared, exec_idx))
                    .expect("spawn fleet worker")
            })
            .collect();
        self.pool = Some(FleetPool { shared, handles });
    }

    /// Executes `descriptors` on the pool (dispatching thread included)
    /// and appends the results to the buffer in run-id order.
    fn run_batch(&mut self, patch: &Arc<CompiledPatch>, descriptors: Vec<(u64, u64)>) {
        self.ensure_pool();
        let pool = self.pool.as_ref().expect("pool just ensured");
        let shared = Arc::clone(&pool.shared);
        let batch = descriptors.len();
        let executors = pool.handles.len() + 1;
        // Split the descriptor range into one contiguous deque per
        // executor, as even as possible (executor 0 = this thread).
        let deques = (0..executors)
            .map(|k| {
                Deque::new(
                    (k * batch / executors) as u32,
                    ((k + 1) * batch / executors) as u32,
                )
            })
            .collect();
        let job = Arc::new(BatchJob {
            descriptors,
            patch: Arc::clone(patch),
            parent: gist_obs::current_span_handle(),
            deques,
            slots: Slots::new(batch),
            remaining: AtomicUsize::new(pool.handles.len()),
        });
        {
            let mut st = shared.lock_state();
            st.epoch += 1;
            st.job = Some(Arc::clone(&job));
            shared.work_ready.notify_all();
        }
        let local = run_executor(&shared, &job, 0, &mut self.main_ctx);
        self.main_stats.absorb_batch(&local, 0);
        {
            let mut st = shared.lock_state();
            while job.remaining.load(Ordering::Acquire) != 0 {
                st = shared.work_done.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            st.job = None;
            if st.panicked {
                st.panicked = false;
                panic!("fleet worker panicked");
            }
        }
        for i in 0..batch {
            // SAFETY: batch complete (remaining == 0 acquired above);
            // every claimed slot was filled and no executor touches the
            // job anymore.
            let run = unsafe { job.slots.take(i) }.expect("every batch slot filled");
            self.buffer.push_back(run);
        }
    }

    /// Fills the buffer with a batch of runs for `patch`, in parallel when
    /// `config.batch > 1`.
    fn refill(&mut self, patch: &Arc<CompiledPatch>) {
        // The server's remaining-runs hint caps the prefetch so a batch
        // never executes runs that would only be discarded at the next
        // patch change.
        let batch = self
            .hint_remaining
            .map_or(self.config.batch, |h| {
                self.config.batch.min(h.max(1) as usize)
            })
            .max(1);
        // Batch shape depends on the execution configuration, not on the
        // logical work, so it is a histogram — counters must stay identical
        // across batch sizes (the determinism contract).
        gist_obs::histogram!("fleet.batch_occupancy").record(batch as u64);
        let descriptors: Vec<(u64, u64)> = (0..batch as u64)
            .map(|i| {
                let n = self.next_run + i;
                (n, self.seed_of(n))
            })
            .collect();
        self.next_run += batch as u64;
        if batch == 1 {
            // Sequential path: execute inline on executor 0. Worker spans
            // parent under whatever span dispatched the fleet (typically
            // `server.collect`).
            let parent = gist_obs::current_span_handle();
            let _span = gist_obs::span_under(&parent, "fleet.worker");
            let (id, seed) = descriptors[0];
            let run = execute_one(
                self.program,
                &self.compiled,
                self.make_config,
                self.config.num_cores,
                &mut self.main_ctx,
                patch,
                id,
                seed,
            );
            self.buffer.push_back(run);
            self.main_stats.runs += 1;
            self.main_stats.shard_hits += self.main_ctx.shard.hits();
            self.main_stats.shard_misses += self.main_ctx.shard.misses();
            self.main_ctx.shard.reset_stats();
        } else {
            self.run_batch(patch, descriptors);
        }
    }
}

impl Fleet for SimulatedFleet<'_> {
    fn next_run(&mut self, patch: &InstrumentationPatch) -> ClientRunData {
        if self.patch.as_ref().map(|c| c.patch()) != Some(patch) {
            // Patch changed (new AsT iteration / watch group): discard any
            // prefetched runs; those executions simply never report back.
            // Discard counts also depend on batch shape -> histogram.
            gist_obs::histogram!("fleet.runs_discarded").record(self.buffer.len() as u64);
            self.buffer.clear();
            self.patch = Some(Arc::new(CompiledPatch::new(self.program, patch.clone())));
        }
        if self.buffer.is_empty() {
            let compiled = Arc::clone(self.patch.as_ref().expect("patch lowered above"));
            self.refill(&compiled);
        }
        let run = self.buffer.pop_front().expect("refill produced runs");
        self.runs += 1;
        gist_obs::counter!("fleet.runs_dispatched").inc();
        if run.outcome.is_some() {
            self.failing_runs += 1;
            gist_obs::counter!("fleet.failing_runs").inc();
        }
        run
    }

    fn hint_runs_remaining(&mut self, remaining: u64) {
        self.hint_remaining = Some(remaining);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gist_bugbase::bug_by_name;

    /// Forces real pool worker threads regardless of machine size, so the
    /// stealing/slot machinery is exercised even on one-core CI runners.
    fn forced(endpoints: u32, batch: usize, workers: usize) -> FleetConfig {
        FleetConfig {
            endpoints,
            num_cores: 4,
            batch,
            workers: Some(workers),
        }
    }

    #[test]
    fn sequential_and_parallel_fleets_agree() {
        let bug = bug_by_name("pbzip2-1").unwrap();
        let patch = InstrumentationPatch::default();
        let runs_with = |batch: usize, workers: usize| {
            let mut fleet = SimulatedFleet::for_bug(&bug, forced(8, batch, workers));
            (0..12)
                .map(|_| {
                    let r = Fleet::next_run(&mut fleet, &patch);
                    (r.run_id, r.outcome.is_some(), r.retired)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(
            runs_with(1, 0),
            runs_with(4, 3),
            "batching must not change runs"
        );
    }

    /// The bug's shipped patch: what the server would plan for the first
    /// watch group over an 8-statement slice prefix of the failure.
    fn planned_patch(bug: &gist_bugbase::BugSpec) -> InstrumentationPatch {
        let (_, report) = bug.find_failure(2_000).expect("bug manifests");
        let slicer = gist_slicing::StaticSlicer::new(&bug.program);
        let slice = slicer.compute(report.failing_stmt);
        let planner = gist_tracking::Planner::new(&bug.program, slicer.ticfg());
        planner.plan(slice.prefix(8), 0)
    }

    /// Differential: for EVERY bugbase bug under its shipped patch, the
    /// batched fleet is run-for-run indistinguishable from the sequential
    /// one — same outcomes, same retired counts, and the same watchpoint
    /// hit sequences. 16 runs is a multiple of the batch size, so the
    /// batch arm executes exactly as many runs as the sequential arm.
    #[test]
    fn batched_fleets_agree_on_every_bug_under_shipped_patch() {
        for bug in gist_bugbase::all_bugs() {
            let patch = planned_patch(&bug);
            let runs_with = |batch: usize, workers: usize| {
                let mut fleet = SimulatedFleet::for_bug(&bug, forced(8, batch, workers));
                (0..16)
                    .map(|_| {
                        let r = Fleet::next_run(&mut fleet, &patch);
                        (
                            r.run_id,
                            r.outcome.map(|o| format!("{o:?}")),
                            r.retired,
                            r.trace.hits,
                        )
                    })
                    .collect::<Vec<_>>()
            };
            assert_eq!(
                runs_with(1, 0),
                runs_with(8, 3),
                "{}: batch=8 must match sequential runs exactly",
                bug.name
            );
        }
    }

    /// Satellite regression test: results come out of the pooled path in
    /// run-id order by construction (pre-sized slots, no sort), across
    /// several batches and a worker count that guarantees stealing
    /// pressure on the shared deques.
    #[test]
    fn pooled_batches_preserve_run_id_order() {
        let bug = bug_by_name("pbzip2-1").unwrap();
        let patch = InstrumentationPatch::default();
        let mut fleet = SimulatedFleet::for_bug(&bug, forced(8, 8, 4));
        let ids: Vec<u64> = (0..32)
            .map(|_| Fleet::next_run(&mut fleet, &patch).run_id)
            .collect();
        assert_eq!(
            ids,
            (0..32).collect::<Vec<u64>>(),
            "slot collection must be in run-id order"
        );
        assert_eq!(fleet.pool_workers(), 4, "forced workers spawn real threads");
        let stats = fleet.contention_stats();
        assert_eq!(stats.workers.len(), 5, "executor 0 + 4 pool workers");
        let total: u64 = stats.workers.iter().map(|w| w.runs).sum();
        assert_eq!(total, 32, "every run attributed to exactly one executor");
    }

    /// The server's remaining-runs hint caps prefetch: with 3 runs left,
    /// a batch-8 fleet must not execute 8 runs.
    #[test]
    fn hint_caps_prefetch() {
        let bug = bug_by_name("pbzip2-1").unwrap();
        let patch = InstrumentationPatch::default();
        let mut fleet = SimulatedFleet::for_bug(&bug, forced(8, 8, 2));
        Fleet::hint_runs_remaining(&mut fleet, 3);
        let _ = Fleet::next_run(&mut fleet, &patch);
        assert_eq!(fleet.next_run, 3, "prefetch capped at the hint");
        // Without a fresh hint the cap persists until the server updates it.
        let _ = Fleet::next_run(&mut fleet, &patch);
        let _ = Fleet::next_run(&mut fleet, &patch);
        assert_eq!(fleet.next_run, 3, "buffered runs served without refill");
    }

    #[test]
    fn failure_counter_tracks_outcomes() {
        let bug = bug_by_name("curl-965").unwrap();
        let patch = InstrumentationPatch::default();
        let mut fleet = SimulatedFleet::for_bug(&bug, FleetConfig::default());
        for _ in 0..9 {
            Fleet::next_run(&mut fleet, &patch);
        }
        assert_eq!(fleet.runs, 9);
        // Curl fails on every third seed (seeds 0,3,6 of endpoint streams
        // spread across endpoints, so at least one failure in 9 runs).
        assert!(fleet.failing_runs > 0);
    }

    #[test]
    fn patch_change_discards_prefetched_runs() {
        let bug = bug_by_name("pbzip2-1").unwrap();
        let mut fleet = SimulatedFleet::for_bug(&bug, forced(4, 6, 2));
        let p1 = InstrumentationPatch::default();
        let p2 = InstrumentationPatch {
            pt_on_at_start: true,
            ..InstrumentationPatch::default()
        };
        let _ = Fleet::next_run(&mut fleet, &p1);
        // Buffer holds 5 prefetched runs for p1; switching patches drops them.
        let r = Fleet::next_run(&mut fleet, &p2);
        assert!(
            r.run_id >= 6,
            "prefetched p1 runs discarded, got {}",
            r.run_id
        );
    }

    #[test]
    fn distinct_endpoints_have_distinct_seed_streams() {
        let bug = bug_by_name("pbzip2-1").unwrap();
        let fleet = SimulatedFleet::for_bug(
            &bug,
            FleetConfig {
                endpoints: 16,
                ..FleetConfig::default()
            },
        );
        let s0 = fleet.seed_of(0);
        let s1 = fleet.seed_of(1);
        let s16 = fleet.seed_of(16);
        assert_ne!(s0, s1);
        assert_eq!(s16, s0 + 1, "endpoint 0's second run follows its stream");
    }
}
