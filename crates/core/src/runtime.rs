//! The Alphonse runtime: dynamic dependence analysis and incremental
//! evaluation.
//!
//! This module implements the paper's Sections 4 and 5 as a library instead
//! of a source transformation: the three instrumented operations
//! `access` / `modify` / `call` (Algorithms 3, 4 and 5) are the methods
//! [`Runtime::raw_read`], [`Runtime::raw_write`] and
//! [`Memo::call`](crate::Memo::call), and the evaluation routine of
//! Section 4.5 is [`Runtime::propagate`] plus the internal evaluation that
//! runs before incremental calls.
//!
//! # Memory layout
//!
//! Per-node state is stored struct-of-arrays: the evaluator's hot loop only
//! touches the dense `values` / `flags` / `gens` / `last_accessed` vectors
//! (all indexed by `NodeId::index()`), while cold bookkeeping — diagnostic
//! names, executor closures, re-entrant stack depths — lives in out-of-line
//! side tables that propagation never reads. See DESIGN.md ("Memory
//! layout") for the full picture.

use crate::dirty::{DirtySet, Scheduling};
use crate::fxhash::FxHashMap;
use crate::stats::Stats;
#[cfg(feature = "trace")]
use crate::trace::TraceEvent;
use crate::trace::{DirtyReason, GraphSnapshot, SnapshotNode, TraceSink};
use crate::value::Value;
use alphonse_graph::{DepGraph, NodeId, UnionFind};
use alphonse_mem as mem;
use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};

static NEXT_RUNTIME_ID: AtomicU64 = AtomicU64::new(1);

/// Delivers an event to the installed trace sink, if any.
///
/// The event expression is only evaluated inside the sink-present branch, so
/// with no sink each site costs a single untaken, well-predicted branch;
/// without the `trace` feature the sites compile out entirely. The sink is
/// cloned out of the slot first (an `Arc` bump) so the event may borrow the
/// same `Inner` the slot lives in.
macro_rules! emit {
    ($inner:expr, $ev:expr) => {
        #[cfg(feature = "trace")]
        {
            if let Some(sink) = $inner.sink.as_ref().map(Arc::clone) {
                sink.event(&$ev);
            }
        }
    };
}

/// The re-execution closure of an incremental procedure instance: runs the
/// body against the runtime and returns the fresh cached value. Only
/// propagation-driven executions (and a fresh instance's first run) go
/// through it; a demand call re-executes an existing instance by running
/// the body in place. `Send + Sync` so a session owning the closure can
/// move between threads.
pub(crate) type Executor = Arc<dyn Fn(&Runtime) -> Box<dyn Value> + Send + Sync>;

/// Evaluation strategy of an incremental procedure (paper Section 3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Update lazily, upon calls to the procedure (the `DEMAND` pragma
    /// argument). This is the default.
    #[default]
    Demand,
    /// Re-execute during change propagation, before the next call request
    /// (the `EAGER` pragma argument). Requires the procedure to satisfy the
    /// paper's OBS restriction: spurious executions must not be observable.
    Eager,
}

/// What kind of entity a dependency-graph node stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A storage location (top-level variable, object field, …).
    Location,
    /// An incremental procedure instance — one (procedure, argument-vector)
    /// pair of a cached procedure or maintained method.
    Computation,
}

// Packed per-node flag bits, one byte per node in `Inner::flags`. The
// evaluator's decision per dirty node ("location or computation? demand or
// eager? consistent? mid-execution?") reads exactly one byte instead of
// walking an `Option<CompState>` indirection.

/// Set iff the node is an incremental procedure instance (else: location).
const F_COMP: u8 = 1 << 0;
/// The paper's consistency bit (computations only; locations are always
/// consistent by definition).
const F_CONSISTENT: u8 = 1 << 1;
/// Strategy bit: set = `Strategy::Eager`, clear = `Strategy::Demand`.
const F_EAGER: u8 = 1 << 2;
/// The evaluator wanted to re-execute this eager node while it was still
/// running; it is re-queued when the execution finishes.
const F_REQUEUE: u8 = 1 << 3;
/// At least one execution of this node is currently on the call stack.
/// Depth beyond one (the paper's AVL `balance` re-entrancy, Section 7.3) is
/// rare and tracked out of line in `Inner::deep_stack`.
const F_ON_STACK: u8 = 1 << 4;

/// Buffered batch writes: one `(location, final value)` entry per distinct
/// written location, in first-write order.
pub(crate) type PendingWrites = Vec<(NodeId, Box<dyn Value>)>;

struct Frame {
    node: NodeId,
    /// This execution's stamp in the runtime-wide `last_accessed` table.
    /// Per-execution edge deduplication checks a node's stamp against this
    /// epoch instead of probing a per-frame hash set, so starting a frame
    /// allocates nothing.
    epoch: u64,
    /// Stamps this frame overwrote that may belong to a live enclosing
    /// frame; restored LIFO when this frame pops so the enclosing
    /// execution's dedup set survives nested (incl. re-entrant) calls.
    overflow: Vec<(NodeId, u64)>,
    /// Depth of nested `untracked` regions active in this frame
    /// (the `(*UNCHECKED*)` pragma of Section 6.4).
    suppress: u32,
    /// Set when a fresher execution of the same node started while this one
    /// was still running. A stale execution's result will be discarded, so
    /// recording further dependence edges for it would only pollute the
    /// fresher execution's edge set.
    stale: bool,
}

enum DirtyStore {
    Global(DirtySet),
    /// One inconsistent set per dependency-graph partition, keyed by the
    /// partition's current union-find root (Section 6.3).
    Partitioned(FxHashMap<NodeId, DirtySet>),
}

pub(crate) struct Inner {
    graph: DepGraph,
    // ------------------------------------------------------------------
    // Hot struct-of-arrays node state, all indexed by `NodeId::index()`.
    // These are the only per-node columns propagation touches.
    // ------------------------------------------------------------------
    /// Dense value slab: the cached value of each location / computation.
    values: Vec<Option<Box<dyn Value>>>,
    /// Packed per-node flag bits (`F_*` constants above).
    flags: Vec<u8>,
    /// Generation stamp of the most recently *started* execution of each
    /// computation node. An execution only commits its value to the cache
    /// if it is still the latest when it finishes; superseded (outer,
    /// stale) executions hand their value to their caller but leave the
    /// cache to the fresher run.
    gens: Vec<u64>,
    /// Frame-epoch stamp per node: the epoch of the execution frame that
    /// most recently recorded a dependence on the node. Epoch 0 is reserved
    /// for "never accessed". Epochs are globally unique per frame, so a
    /// stale stamp can never be mistaken for the current frame's.
    last_accessed: Vec<u64>,
    /// Re-execution closure of each computation node (`None` for
    /// variables). A dense column rather than a side table: the executor
    /// is fetched on every propagation-driven execution, and at graph
    /// sizes past the cache a hash probe per execution is a guaranteed
    /// random miss.
    executors: Vec<Option<Executor>>,
    // ------------------------------------------------------------------
    // Cold out-of-line side tables, keyed by `NodeId::index()` as u32.
    // ------------------------------------------------------------------
    /// Diagnostic labels (memo names, `var_named`, `set_label`).
    names: FxHashMap<u32, Arc<str>>,
    /// Extra on-stack depth beyond 1 for re-entrantly executing nodes;
    /// an entry `d` means total depth `1 + d`. Empty in steady state.
    deep_stack: FxHashMap<u32, u32>,
    stack: Vec<Frame>,
    /// One call stack per executor-pool worker slot, indexed by the slot in
    /// the worker's thread-local identity. Level-parallel draining gives
    /// each concurrently running executor its own frame stack — dependence
    /// recording on a worker thread targets that worker's innermost frame —
    /// while everything else (values, flags, the graph) stays shared behind
    /// the runtime lock. Empty between levels.
    #[cfg(feature = "parallel")]
    worker_stacks: Vec<Vec<Frame>>,
    /// The `set_parallelism` knob: `0` = sequential evaluator (default),
    /// `1` = level-at-a-time draining with inline execution (the honest
    /// single-worker control), `n >= 2` = dispatch multi-node levels to an
    /// `n`-worker pool.
    #[cfg(feature = "parallel")]
    parallelism: usize,
    /// Lazily created persistent worker pool (first multi-node level with
    /// `parallelism >= 2`). Rebuilt if the knob changes size.
    #[cfg(feature = "parallel")]
    exec_pool: Option<crate::exec_pool::ExecPool>,
    dirty: DirtyStore,
    partition: Option<UnionFind>,
    scheduling: Scheduling,
    dedup_edges: bool,
    evaluating: bool,
    /// Monotone propagation-wave counter: incremented every time the
    /// evaluation routine starts a (non-nested) run. Never reset — unlike
    /// [`Stats::waves`] — so trace wave ids stay unique across
    /// [`Runtime::reset_stats`].
    wave: u64,
    exec_gen: u64,
    /// Epoch of the most recently started execution frame.
    frame_epoch: u64,
    /// Reusable buffer for successor fan-out during propagation. Taken and
    /// returned around each use so steady-state drains allocate nothing;
    /// its capacity high-water mark is tracked in `stats.scratch_hwm`.
    succ_scratch: Vec<NodeId>,
    /// Reusable buffers for [`Runtime::batch`]: the pending-write list and
    /// the `NodeId`-indexed coalescing slot map (`slot + 1`, `0` = none).
    /// Taken at batch start and returned cleared (capacity kept) at commit,
    /// so steady-state batches allocate nothing for their bookkeeping.
    batch_pending: PendingWrites,
    batch_slots: Vec<usize>,
    /// Installed trace sink ([`crate::trace`]). `None` — the default — keeps
    /// every emission site down to one untaken branch.
    #[cfg(feature = "trace")]
    sink: Option<Arc<dyn TraceSink>>,
    stats: Stats,
}

/// Configures and builds a [`Runtime`].
///
/// # Example
///
/// ```
/// use alphonse::{Runtime, Scheduling};
/// let rt = Runtime::builder()
///     .partitioning(true)
///     .scheduling(Scheduling::HeightOrder)
///     .build();
/// assert!(rt.is_partitioned());
/// ```
#[derive(Debug, Clone)]
pub struct RuntimeBuilder {
    partitioning: bool,
    scheduling: Scheduling,
    dedup_edges: bool,
}

impl Default for RuntimeBuilder {
    fn default() -> Self {
        RuntimeBuilder {
            partitioning: false,
            scheduling: Scheduling::HeightOrder,
            dedup_edges: true,
        }
    }
}

impl RuntimeBuilder {
    /// Enables dependency-graph partitioning with per-partition inconsistent
    /// sets (paper Section 6.3). Off by default.
    pub fn partitioning(mut self, on: bool) -> Self {
        self.partitioning = on;
        self
    }

    /// Chooses the order in which dirty nodes are processed
    /// (paper Section 4.5). Height order by default.
    pub fn scheduling(mut self, mode: Scheduling) -> Self {
        self.scheduling = mode;
        self
    }

    /// Controls per-execution deduplication of dependency edges. On by
    /// default; turning it off reproduces the paper's literal algorithm,
    /// which may record parallel edges.
    pub fn dedup_edges(mut self, on: bool) -> Self {
        self.dedup_edges = on;
        self
    }

    /// Builds the runtime.
    pub fn build(self) -> Runtime {
        let dirty = if self.partitioning {
            DirtyStore::Partitioned(FxHashMap::default())
        } else {
            DirtyStore::Global(DirtySet::new(self.scheduling))
        };
        Runtime {
            inner: Arc::new(Mutex::new(Inner {
                graph: DepGraph::new(),
                values: Vec::new(),
                flags: Vec::new(),
                gens: Vec::new(),
                last_accessed: Vec::new(),
                executors: Vec::new(),
                names: FxHashMap::default(),
                deep_stack: FxHashMap::default(),
                stack: Vec::new(),
                #[cfg(feature = "parallel")]
                worker_stacks: Vec::new(),
                #[cfg(feature = "parallel")]
                parallelism: 0,
                #[cfg(feature = "parallel")]
                exec_pool: None,
                dirty,
                partition: self.partitioning.then(UnionFind::new),
                scheduling: self.scheduling,
                dedup_edges: self.dedup_edges,
                evaluating: false,
                wave: 0,
                exec_gen: 0,
                frame_epoch: 0,
                succ_scratch: Vec::new(),
                batch_pending: Vec::new(),
                batch_slots: Vec::new(),
                #[cfg(feature = "trace")]
                sink: crate::trace::default_sink(),
                stats: Stats::default(),
            })),
            exec_depth: Arc::new(AtomicU32::new(0)),
            #[cfg(feature = "parallel")]
            par_active: Arc::new(AtomicU32::new(0)),
            metrics: Arc::new(crate::metrics::RuntimeMetrics::new()),
            id: NEXT_RUNTIME_ID.fetch_add(1, Ordering::Relaxed),
        }
    }
}

/// The Alphonse incremental-computation runtime.
///
/// A `Runtime` owns the dependency graph, the call stack of executing
/// incremental procedure instances, the inconsistent set(s), and all cached
/// values. It is a cheap handle (`Clone` shares the same underlying state).
///
/// A session is a `Send` value: a whole runtime — including every handle
/// cloned from it — may be *moved* to another thread, which is what
/// [`crate::pool::SessionPool`] does to shard tenants over a fixed set of
/// worker threads. The supported concurrency model is **one thread at a
/// time**: the paper's evaluator is sequential and lists parallel execution
/// of a *single* dependency graph as future work, so invoking operations on
/// one runtime from two threads at once is a program error and trips the
/// same fail-stop re-entrancy check as a sink calling back into the runtime
/// (the internal lock is acquired with `try_lock`, never by blocking).
/// Cross-session parallelism needs no such machinery because independent
/// runtimes share nothing.
///
/// # Example
///
/// ```
/// use alphonse::Runtime;
/// let rt = Runtime::new();
/// let a = rt.var(2i64);
/// let b = rt.var(3i64);
/// let product = rt.memo("product", move |rt, &(): &()| a.get(rt) * b.get(rt));
/// assert_eq!(product.call(&rt, ()), 6);
/// a.set(&rt, 10);
/// assert_eq!(product.call(&rt, ()), 30); // recomputed
/// assert_eq!(product.call(&rt, ()), 30); // cached
/// ```
///
/// # Panics
///
/// Runtime operations panic if the program violates the paper's
/// restrictions (Section 3.5): a dependency cycle (a procedure transitively
/// depending on its own result, which breaks DET) is reported as soon as it
/// is detected. A panic unwinding out of an incremental procedure body
/// leaves the runtime in an unspecified (but memory-safe) state; it must not
/// be reused afterwards.
#[derive(Clone)]
pub struct Runtime {
    pub(crate) inner: Arc<Mutex<Inner>>,
    /// Incremental call-stack depth, shadowed outside the lock so
    /// [`Runtime::in_tracked_context`] — the gate embedded hosts consult on
    /// *every* untracked location read (Section 6.1) — costs one atomic
    /// load instead of a lock round-trip. Written only while the lock is
    /// held, by [`Runtime::push_frame`] and [`Runtime::pop_frame`], so the
    /// lock orders every update and a plain relaxed load and store (no
    /// lock-prefixed read-modify-write) is exact. The runtime is not
    /// `Sync`, so a relaxed load always observes the current thread's
    /// latest update.
    exec_depth: Arc<AtomicU32>,
    /// Nonzero while a level of executors is running on the worker pool.
    /// [`Runtime::lock`] consults it on contention: during a parallel level
    /// the lock is legitimately shared between the driver and the workers,
    /// so contention means *wait*; at any other time it means *re-entrancy
    /// bug*, and the fail-stop panic is kept.
    #[cfg(feature = "parallel")]
    par_active: Arc<AtomicU32>,
    /// Lock-free telemetry registry ([`crate::metrics`]): wave/level
    /// histograms and worker gauges, recorded outside the runtime lock.
    /// Always present so `metrics_snapshot` stays source-compatible; the
    /// recording sites are compiled in by the `metrics` feature.
    #[cfg_attr(not(feature = "metrics"), allow(dead_code))]
    pub(crate) metrics: Arc<crate::metrics::RuntimeMetrics>,
    pub(crate) id: u64,
}

impl fmt::Debug for Runtime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.lock();
        f.debug_struct("Runtime")
            .field("id", &self.id)
            .field("nodes", &inner.values.len())
            .field("edges", &inner.graph.edge_count())
            .field("dirty", &inner.dirty_len())
            .finish()
    }
}

impl Default for Runtime {
    fn default() -> Self {
        Self::new()
    }
}

impl Inner {
    fn dirty_len(&self) -> usize {
        match &self.dirty {
            DirtyStore::Global(s) => s.len(),
            DirtyStore::Partitioned(m) => m.values().map(DirtySet::len).sum(),
        }
    }

    /// The diagnostic label of `n`, for error messages.
    fn name_of(&self, n: NodeId) -> &str {
        self.names
            .get(&(n.index() as u32))
            .map(|s| &**s)
            .unwrap_or("<unnamed>")
    }

    /// The call stack of the *current thread*: an executor-pool worker of
    /// this runtime gets its own per-slot stack (concurrent executors must
    /// not see each other's frames), every other thread — including the
    /// propagation driver — uses the main stack. Compiles to `&mut
    /// self.stack` without the `parallel` feature.
    #[cfg(feature = "parallel")]
    fn active_stack(&mut self) -> &mut Vec<Frame> {
        if let Some((pool_id, slot)) = crate::exec_pool::worker_identity() {
            if self.exec_pool.as_ref().is_some_and(|p| p.id() == pool_id) {
                return &mut self.worker_stacks[slot];
            }
        }
        &mut self.stack
    }

    #[cfg(not(feature = "parallel"))]
    #[inline(always)]
    fn active_stack(&mut self) -> &mut Vec<Frame> {
        &mut self.stack
    }

    /// Marks every live frame of node `n` stale, on the main stack and —
    /// under level-parallel draining — on every worker stack. A stale
    /// execution's result will be discarded (generation supersession), so
    /// it must stop recording dependence edges.
    fn mark_stale_frames(&mut self, n: NodeId) {
        for frame in &mut self.stack {
            if frame.node == n {
                frame.stale = true;
            }
        }
        #[cfg(feature = "parallel")]
        for stack in &mut self.worker_stacks {
            for frame in stack {
                if frame.node == n {
                    frame.stale = true;
                }
            }
        }
    }

    /// Bumps the on-stack depth of node `i`. Depth 1 lives in the flag
    /// byte; deeper re-entrancy spills to the `deep_stack` side table.
    fn on_stack_inc(&mut self, i: usize) {
        if self.flags[i] & F_ON_STACK == 0 {
            self.flags[i] |= F_ON_STACK;
        } else {
            *self.deep_stack.entry(i as u32).or_insert(0) += 1;
        }
    }

    /// Drops the on-stack depth of node `i`, clearing the flag at zero.
    fn on_stack_dec(&mut self, i: usize) {
        match self.deep_stack.get_mut(&(i as u32)) {
            Some(d) if *d == 1 => {
                self.deep_stack.remove(&(i as u32));
            }
            Some(d) => *d -= 1,
            None => {
                debug_assert!(self.flags[i] & F_ON_STACK != 0, "on_stack underflow");
                self.flags[i] &= !F_ON_STACK;
            }
        }
    }

    /// A handle on computation node `n`'s re-execution closure, for the
    /// propagation drains (the demand call path runs bodies directly).
    fn executor(&self, n: NodeId) -> Executor {
        Arc::clone(
            self.executors[n.index()]
                .as_ref()
                .expect("computation node has an executor"),
        )
    }

    /// Approximate heap bytes held by the dependency graph plus the SoA
    /// node columns and side tables, from vector capacities. Feeds the
    /// `mem_bytes_hwm` gauge and E14's memory-per-node metric.
    fn approx_bytes(&self) -> u64 {
        use std::mem::size_of;
        let values = self.values.capacity() * size_of::<Option<Box<dyn Value>>>();
        let flags = self.flags.capacity();
        let gens = self.gens.capacity() * size_of::<u64>();
        let last = self.last_accessed.capacity() * size_of::<u64>();
        let execs = self.executors.capacity() * size_of::<Option<Executor>>();
        // Side tables charged per entry (hash-map overhead not modeled).
        let names = self.names.len() * size_of::<(u32, Arc<str>)>();
        let deep = self.deep_stack.len() * size_of::<(u32, u32)>();
        // Propagation state: the inconsistent set(s) retain capacity across
        // waves, so their footprint belongs to the steady-state bill too.
        let dirty = match &self.dirty {
            DirtyStore::Global(s) => s.approx_bytes(),
            DirtyStore::Partitioned(m) => m.values().map(DirtySet::approx_bytes).sum(),
        };
        self.graph.approx_bytes()
            + dirty
            + (values + flags + gens + last + names + execs + deep) as u64
    }

    /// Inserts `n` into the inconsistent set of its partition. `cause` is
    /// the predecessor that fanned dirt here ([`DirtyReason::Fanout`]),
    /// `None` when `n` itself originates the dirt.
    #[cfg_attr(not(feature = "trace"), allow(unused_variables))]
    fn insert_dirty(&mut self, n: NodeId, reason: DirtyReason, cause: Option<NodeId>) {
        let height = self.graph.height(n);
        let scheduling = self.scheduling;
        let root = self.partition.as_mut().map(|uf| uf.find(n));
        let fresh = match &mut self.dirty {
            DirtyStore::Global(s) => s.insert(n, height),
            DirtyStore::Partitioned(m) => m
                .entry(root.expect("partitioned store implies union-find"))
                .or_insert_with(|| DirtySet::new(scheduling))
                .insert(n, height),
        };
        if fresh {
            self.stats.dirtied += 1;
            emit!(
                self,
                TraceEvent::Dirtied {
                    node: n,
                    reason,
                    cause,
                }
            );
        }
    }

    /// Records the edge `n -> top-of-stack` if an incremental procedure is
    /// executing (paper Algorithm 3's `CreateEdge` step), merging partitions
    /// as Section 6.3 prescribes.
    fn record_dependence(&mut self, n: NodeId) {
        // Copy the top frame's routing state out first: `active_stack`
        // borrows all of `self`, so the frame reference cannot be held
        // across the counter/table updates below.
        let (depth, epoch, v, stale, suppressed) = {
            let stack = self.active_stack();
            let depth = stack.len();
            match stack.last() {
                None => return,
                Some(f) => (depth, f.epoch, f.node, f.stale, f.suppress > 0),
            }
        };
        if stale {
            return;
        }
        if suppressed {
            self.stats.untracked_reads += 1;
            return;
        }
        if self.dedup_edges {
            // O(1) per-execution dedup: the edge was already recorded iff
            // the node's stamp equals this frame's epoch. Epochs are
            // globally unique, so stamps left by finished frames can never
            // be mistaken for the current one. Concurrent same-level frames
            // may clobber each other's stamps; that only weakens dedup (a
            // parallel edge may slip through), never loses an edge.
            let stamp = self.last_accessed[n.index()];
            if stamp == epoch {
                self.stats.dedup_hits += 1;
                return;
            }
            if stamp != 0 && depth > 1 {
                // The stamp may belong to a live enclosing frame; remember
                // it so popping this frame restores the enclosing
                // execution's dedup set.
                let frame = self.active_stack().last_mut().expect("frame checked above");
                frame.overflow.push((n, stamp));
            }
            self.last_accessed[n.index()] = epoch;
        }
        let raises_before = self.graph.height_raises();
        self.graph.add_edge(n, v);
        self.stats.height_raises += self.graph.height_raises() - raises_before;
        self.stats.edges_created += 1;
        self.stats.mem_edges_hwm = self.stats.mem_edges_hwm.max(self.graph.edge_count() as u64);
        emit!(self, TraceEvent::EdgeAdded { from: n, to: v });
        assert!(
            !self.graph.cycle_suspected(),
            "dependency cycle detected at {} -> {} ({}): incremental procedures must be \
             deterministic and acyclic (paper restriction DET)",
            n,
            v,
            self.name_of(v),
        );
        if let Some(uf) = self.partition.as_mut() {
            uf.ensure(n);
            uf.ensure(v);
            if let Some((win, lose)) = uf.union(n, v) {
                if let DirtyStore::Partitioned(m) = &mut self.dirty {
                    if let Some(mut lost) = m.remove(&lose) {
                        let scheduling = self.scheduling;
                        m.entry(win)
                            .or_insert_with(|| DirtySet::new(scheduling))
                            .absorb(&mut lost);
                    }
                }
            }
        }
    }

    /// Marks every successor of `u` dirty — the fan-out step of the
    /// Section 4.5 marking rule. Successors are staged through the
    /// runtime-owned scratch buffer (the graph borrow must end before
    /// `insert_dirty` can mutate heights/partitions), so at steady state
    /// this performs zero heap allocations; `stats.scratch_hwm` records the
    /// buffer's capacity high-water mark as evidence.
    fn dirty_succs_of(&mut self, u: NodeId) {
        let mut scratch = std::mem::take(&mut self.succ_scratch);
        self.graph.succs_into(u, &mut scratch);
        self.stats.scratch_hwm = self.stats.scratch_hwm.max(scratch.capacity() as u64);
        for &s in &scratch {
            self.insert_dirty(s, DirtyReason::Fanout, Some(u));
        }
        self.succ_scratch = scratch;
    }

    /// Stores `value` into location `n` — the shared tail of `modify`
    /// (Algorithm 4) used by both `raw_write` and batch commit: record the
    /// writer's dependence, compare against the stored value (the cutoff
    /// comparison is only charged when a prior value exists), and dirty the
    /// location's readers when the value actually changed.
    fn write_location(&mut self, n: NodeId, value: Box<dyn Value>) {
        self.record_dependence(n);
        let i = n.index();
        debug_assert!(self.flags[i] & F_COMP == 0, "write on a computation node");
        let (changed, compared) = match &self.values[i] {
            Some(old) => (!old.dyn_eq(&*value), true),
            None => (true, false),
        };
        self.values[i] = Some(value);
        if compared {
            self.stats.comparisons += 1;
        }
        emit!(self, TraceEvent::Write { node: n, changed });
        #[cfg(feature = "trace")]
        if compared && !changed {
            emit!(self, TraceEvent::CutoffStop { node: n });
        }
        if changed {
            self.stats.changes += 1;
            // Only locations some incremental instance has actually read
            // need propagation — the paper's Algorithm 4 guards with
            // `nodeptr(l) # NIL` for the same reason. Skipping reader-less
            // locations is not merely an optimization: dirt queued before
            // the first reader exists would be processed *after* that
            // reader consumed the post-write value, spuriously marking it
            // mid-construction and breaking the frontier invariant of the
            // Section 4.5 marking rule.
            if self.graph.has_succs(n) {
                self.insert_dirty(n, DirtyReason::WriteChanged, None);
            }
        }
    }

    /// Appends one node to every SoA column (and the side tables it needs).
    fn alloc_node(
        &mut self,
        value: Option<Box<dyn Value>>,
        comp: Option<(Strategy, Executor)>,
        name: Option<Arc<str>>,
    ) -> NodeId {
        let n = self.graph.add_node();
        debug_assert_eq!(n.index(), self.values.len());
        let flags = match &comp {
            None => 0,
            Some((Strategy::Demand, _)) => F_COMP,
            Some((Strategy::Eager, _)) => F_COMP | F_EAGER,
        };
        // SoA column growth is graph-core memory; the boxed value itself
        // was billed to ValueSlab at the caller's `Box::new`.
        let _mem = mem::scope(mem::Tag::GraphCore);
        self.values.push(value);
        self.flags.push(flags);
        self.gens.push(0);
        self.last_accessed.push(0);
        self.executors.push(comp.map(|(_, executor)| executor));
        if let Some(name) = name {
            self.names.insert(n.index() as u32, name);
        }
        if let Some(uf) = self.partition.as_mut() {
            uf.ensure(n);
        }
        self.stats.nodes_created += 1;
        self.stats.mem_nodes += 1;
        self.stats.mem_bytes_hwm = self.stats.mem_bytes_hwm.max(self.approx_bytes());
        // The label is cloned back out of the name table inside the event
        // expression, which only runs when a sink is installed.
        emit!(
            self,
            TraceEvent::NodeCreated {
                node: n,
                kind: if flags & F_COMP != 0 {
                    NodeKind::Computation
                } else {
                    NodeKind::Location
                },
                label: self.names.get(&(n.index() as u32)).cloned(),
            }
        );
        n
    }
}

/// What the evaluator decided to do with one dirty node.
enum Step {
    Idle,
    Continue,
    Execute(NodeId),
}

impl Runtime {
    /// Acquires the internal state lock. A session is used from one thread
    /// at a time, so the lock can only be unavailable when a runtime
    /// operation is re-entered — by a closure that runs under the lock (a
    /// `Var::with` body, a trace sink) or by a second thread misusing one
    /// session concurrently. `try_lock` keeps the `RefCell` fail-stop
    /// diagnostics for both cases instead of deadlocking. A poisoned lock
    /// (a panic unwound out of a runtime operation) is entered anyway: the
    /// documented contract already declares the runtime
    /// unspecified-but-memory-safe after a panic.
    #[inline]
    pub(crate) fn lock(&self) -> MutexGuard<'_, Inner> {
        match self.inner.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
            Err(TryLockError::WouldBlock) => {
                // While a level of executors runs on the worker pool the
                // lock is legitimately contended — the driver and every
                // worker take it for short frame/commit/read sections — so
                // block instead of treating contention as re-entrancy.
                #[cfg(feature = "parallel")]
                if self.par_active.load(Ordering::Acquire) > 0 {
                    return match self.inner.lock() {
                        Ok(guard) => guard,
                        Err(e) => e.into_inner(),
                    };
                }
                panic!(
                    "runtime re-entered while internally locked: closures run by Var::with, \
                     with_value and trace sinks must not call back into runtime operations"
                )
            }
        }
    }

    /// Creates a runtime with default configuration (no partitioning,
    /// height-order scheduling, edge deduplication on).
    pub fn new() -> Self {
        RuntimeBuilder::default().build()
    }

    /// Starts configuring a runtime.
    pub fn builder() -> RuntimeBuilder {
        RuntimeBuilder::default()
    }

    /// Returns `true` if this runtime maintains per-partition inconsistent
    /// sets (Section 6.3).
    pub fn is_partitioned(&self) -> bool {
        self.lock().partition.is_some()
    }

    /// The dirty-node draining order in use.
    pub fn scheduling(&self) -> Scheduling {
        self.lock().scheduling
    }

    /// Sets the wave-propagation parallelism (feature `parallel`):
    ///
    /// * `0` — the sequential evaluator (default; exactly the paper's
    ///   Section 4.5 routine).
    /// * `1` — level-at-a-time draining with inline execution: the same
    ///   batching, barriers and trace brackets as the parallel scheduler
    ///   but zero worker threads — the honest single-worker control for
    ///   speedup measurements.
    /// * `n >= 2` — multi-node levels run their eager executors
    ///   concurrently on a persistent `n`-thread worker pool.
    ///
    /// Level draining only engages for the default configuration
    /// (height-order scheduling, no partitioning); any other configuration
    /// keeps the sequential evaluator regardless of this knob. See
    /// DESIGN.md ("Parallel waves") for the execution model.
    #[cfg(feature = "parallel")]
    pub fn set_parallelism(&self, n: usize) {
        let mut inner = self.lock();
        if inner.parallelism != n {
            inner.parallelism = n;
            // A pool of the wrong size is rebuilt lazily on the next
            // multi-node level; dropping it here joins its (idle) workers.
            if inner.exec_pool.as_ref().is_some_and(|p| p.workers() != n) {
                inner.exec_pool = None;
            }
        }
    }

    /// Without the `parallel` feature the knob is compiled out: this stub
    /// ignores `n`, keeping callers source-compatible across feature
    /// configurations.
    #[cfg(not(feature = "parallel"))]
    pub fn set_parallelism(&self, _n: usize) {}

    /// The current wave-propagation parallelism (`0` = sequential
    /// evaluator; always `0` without the `parallel` feature).
    pub fn parallelism(&self) -> usize {
        #[cfg(feature = "parallel")]
        {
            self.lock().parallelism
        }
        #[cfg(not(feature = "parallel"))]
        {
            0
        }
    }

    /// A snapshot of the work counters.
    pub fn stats(&self) -> Stats {
        let mut inner = self.lock();
        // Refresh the byte gauge so callers see growth since the last
        // allocation (side tables and scratch buffers grow on other paths).
        let bytes = inner.approx_bytes();
        inner.stats.mem_bytes_hwm = inner.stats.mem_bytes_hwm.max(bytes);
        inner.stats
    }

    /// Resets all work counters to zero.
    pub fn reset_stats(&self) {
        self.lock().stats = Stats::default();
    }

    /// A complete telemetry snapshot: every [`Stats`] counter plus the
    /// always-on wave/level latency histograms and executor-pool worker
    /// gauges maintained by [`crate::metrics`]. The histograms are
    /// maintained lock-free outside the runtime lock and are **not**
    /// cleared by [`Runtime::reset_stats`]; isolate a phase with
    /// [`MetricsSnapshot::delta_since`](crate::metrics::MetricsSnapshot::delta_since).
    ///
    /// Without the `metrics` feature the recording sites are compiled out:
    /// the counters are still populated but every histogram and gauge reads
    /// as empty.
    pub fn metrics_snapshot(&self) -> crate::metrics::MetricsSnapshot {
        let m = &*self.metrics;
        let _mem = mem::scope(mem::Tag::Metrics);
        crate::metrics::MetricsSnapshot {
            counters: self.stats().fields(),
            wave_latency_ns: m.wave_latency_ns.snapshot(),
            wave_executed: m.wave_executed.snapshot(),
            wave_wasted: m.wave_wasted.snapshot(),
            level_width: m.level_width.snapshot(),
            level_latency_ns: m.level_latency_ns.snapshot(),
            workers: m.worker_snapshots(),
            queue_depth: m.queue_depth.load(Ordering::Relaxed),
            queue_depth_hwm: m.queue_depth_hwm.load(Ordering::Relaxed),
            pool: None,
            mem: mem::snapshot(),
        }
    }

    /// Current approximate memory footprint as `(nodes, live_edges,
    /// approx_bytes)`. Bytes cover the dependency graph arena, the SoA node
    /// columns and the cold side tables, from vector capacities; E14's
    /// memory-per-node metric is `approx_bytes / nodes`.
    pub fn memory_footprint(&self) -> (u64, u64, u64) {
        let mut inner = self.lock();
        let bytes = inner.approx_bytes();
        inner.stats.mem_bytes_hwm = inner.stats.mem_bytes_hwm.max(bytes);
        (
            inner.graph.node_count() as u64,
            inner.graph.edge_count() as u64,
            bytes,
        )
    }

    /// Total propagation waves run since the runtime was built. Unlike
    /// [`Stats::waves`] this is never reset, so it matches the `wave` ids
    /// stamped on [`crate::trace::TraceEvent::PropagateBegin`] events.
    pub fn waves(&self) -> u64 {
        self.lock().wave
    }

    // ------------------------------------------------------------------
    // Observability (see `crate::trace` for the event taxonomy).
    // ------------------------------------------------------------------

    /// Installs `sink` as this runtime's trace sink, returning the previous
    /// one; pass `None` to detach. Events are delivered synchronously while
    /// the runtime is internally locked — see [`crate::trace`] for the
    /// sink contract (in short: a sink must never re-enter runtime
    /// operations).
    #[cfg(feature = "trace")]
    pub fn set_sink(&self, sink: Option<Arc<dyn TraceSink>>) -> Option<Arc<dyn TraceSink>> {
        std::mem::replace(&mut self.lock().sink, sink)
    }

    /// Without the `trace` feature sinks cannot be attached: this stub
    /// ignores `sink` and returns `None`, keeping callers source-compatible
    /// across feature configurations.
    #[cfg(not(feature = "trace"))]
    pub fn set_sink(&self, _sink: Option<Arc<dyn TraceSink>>) -> Option<Arc<dyn TraceSink>> {
        None
    }

    /// Runs `f` with `sink` installed, then restores the previously
    /// installed sink (a scoped form of [`Runtime::set_sink`]).
    ///
    /// # Example
    ///
    /// ```
    /// use alphonse::trace::Recorder;
    /// use alphonse::Runtime;
    /// use std::sync::Arc;
    ///
    /// let rt = Runtime::new();
    /// let x = rt.var(1i64);
    /// let rec = Arc::new(Recorder::new(64));
    /// rt.with_trace(rec.clone(), || x.set(&rt, 2));
    /// assert!(!rec.is_empty());
    /// ```
    pub fn with_trace<R>(&self, sink: Arc<dyn TraceSink>, f: impl FnOnce() -> R) -> R {
        let prev = self.set_sink(Some(sink));
        let out = f();
        self.set_sink(prev);
        out
    }

    /// Returns `true` if a trace sink is currently installed (always
    /// `false` without the `trace` feature). Substrates consult this before
    /// allocating diagnostic labels on hot construction paths, keeping the
    /// no-observer configuration allocation-free.
    pub fn tracing(&self) -> bool {
        #[cfg(feature = "trace")]
        {
            self.lock().sink.is_some()
        }
        #[cfg(not(feature = "trace"))]
        {
            false
        }
    }

    /// Assigns a diagnostic label to node `n`, visible in
    /// [`Runtime::explain`], [`Runtime::dump_graph`], graph snapshots and
    /// the trace stream ([`crate::trace::TraceEvent::Labeled`]).
    ///
    /// # Panics
    ///
    /// Panics if `n` does not belong to this runtime.
    pub fn set_label(&self, n: NodeId, label: &str) {
        let mut inner = self.lock();
        assert!(n.index() < inner.values.len(), "unknown node {n}");
        let label: Arc<str> = Arc::from(label);
        inner.names.insert(n.index() as u32, Arc::clone(&label));
        emit!(inner, TraceEvent::Labeled { node: n, label });
    }

    /// The diagnostic label of node `n`, if one was assigned (memo names
    /// are assigned automatically; [`Runtime::var_named`] and
    /// [`Runtime::set_label`] cover the rest).
    ///
    /// # Panics
    ///
    /// Panics if `n` does not belong to this runtime.
    pub fn node_label(&self, n: NodeId) -> Option<String> {
        let inner = self.lock();
        assert!(n.index() < inner.values.len(), "unknown node {n}");
        inner.names.get(&(n.index() as u32)).map(|s| s.to_string())
    }

    /// A point-in-time copy of the dependency graph with full runtime
    /// fidelity — kind, label, consistency flag, dirty-queue membership,
    /// partition root and execution recency per node — renderable with
    /// [`crate::trace::render_dot`]. Prefer this over
    /// [`crate::trace::GraphSink`] while the runtime is still alive.
    pub fn graph_snapshot(&self) -> GraphSnapshot {
        let mut guard = self.lock();
        let inner = &mut *guard;
        let n_nodes = inner.values.len();
        let mut queued = vec![false; n_nodes];
        match &inner.dirty {
            DirtyStore::Global(s) => s.for_each_member(|m| queued[m.index()] = true),
            DirtyStore::Partitioned(map) => {
                for s in map.values() {
                    s.for_each_member(|m| queued[m.index()] = true);
                }
            }
        }
        let roots: Vec<Option<NodeId>> = match inner.partition.as_mut() {
            Some(uf) => (0..n_nodes)
                .map(|i| Some(uf.find(NodeId::from_index(i))))
                .collect(),
            None => vec![None; n_nodes],
        };
        let mut nodes = Vec::with_capacity(n_nodes);
        let mut edges = Vec::new();
        for i in 0..n_nodes {
            let id = NodeId::from_index(i);
            let f = inner.flags[i];
            let (kind, consistent, last_exec) = if f & F_COMP == 0 {
                (NodeKind::Location, true, 0)
            } else {
                (NodeKind::Computation, f & F_CONSISTENT != 0, inner.gens[i])
            };
            nodes.push(SnapshotNode {
                id,
                kind,
                label: inner.names.get(&(i as u32)).map(|s| s.to_string()),
                consistent,
                queued: queued[i],
                partition: roots[i],
                last_exec,
                execs: 0,
            });
            for s in inner.graph.succs(id) {
                edges.push((id, s));
            }
        }
        GraphSnapshot { nodes, edges }
    }

    /// Verifies the runtime's internal data-structure invariants. Debug
    /// builds only — release builds compile this to a no-op, so harnesses
    /// (like the E11 differential tests) can call it unconditionally.
    ///
    /// Checked invariants:
    ///
    /// * the call stack is empty (only call this between top-level
    ///   operations) and every node's on-stack flag/depth is zero;
    /// * edge symmetry: the graph's successor and predecessor lists agree
    ///   as edge multisets;
    /// * every queued dirty node is a node of this runtime, and with
    ///   partitioning on it is queued under its own partition root;
    /// * at quiescence (no dirty nodes anywhere), the Section 4.5 marking
    ///   frontier invariant: every computation that depends on an
    ///   inconsistent computation is itself inconsistent.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) describing the first violated invariant.
    pub fn check_invariants(&self) {
        #[cfg(debug_assertions)]
        {
            let mut guard = self.lock();
            let inner = &mut *guard;
            assert!(
                inner.stack.is_empty(),
                "check_invariants: {} execution frame(s) still active; only call between \
                 top-level operations",
                inner.stack.len()
            );
            #[cfg(feature = "parallel")]
            for (slot, stack) in inner.worker_stacks.iter().enumerate() {
                assert!(
                    stack.is_empty(),
                    "check_invariants: worker {slot} still holds {} execution frame(s)",
                    stack.len()
                );
            }
            let n_nodes = inner.values.len();
            for (i, &f) in inner.flags.iter().enumerate() {
                assert!(
                    f & F_ON_STACK == 0,
                    "check_invariants: node {i} is flagged on-stack with an empty call stack"
                );
            }
            assert!(
                inner.deep_stack.is_empty(),
                "check_invariants: deep-stack side table non-empty with an empty call stack"
            );
            // Edge symmetry: every succ edge must have a matching pred edge
            // and vice versa, as multisets.
            let mut balance: FxHashMap<(NodeId, NodeId), i64> = FxHashMap::default();
            for i in 0..n_nodes {
                let u = NodeId::from_index(i);
                for v in inner.graph.succs(u) {
                    *balance.entry((u, v)).or_insert(0) += 1;
                }
                for p in inner.graph.preds(u) {
                    *balance.entry((p, u)).or_insert(0) -= 1;
                }
            }
            for ((u, v), count) in balance {
                assert_eq!(
                    count, 0,
                    "check_invariants: edge {u} -> {v} appears {count:+} more time(s) in the \
                     successor lists than in the predecessor lists"
                );
            }
            // Dirty-set sanity.
            let mut dirty_total = 0usize;
            let mut uf = inner.partition.as_mut();
            match &inner.dirty {
                DirtyStore::Global(s) => s.for_each_member(|m| {
                    assert!(
                        m.index() < n_nodes,
                        "check_invariants: dirty set contains unknown node {m}"
                    );
                    dirty_total += 1;
                }),
                DirtyStore::Partitioned(map) => {
                    for (&root, s) in map {
                        s.for_each_member(|m| {
                            assert!(
                                m.index() < n_nodes,
                                "check_invariants: dirty set contains unknown node {m}"
                            );
                            if let Some(uf) = uf.as_deref_mut() {
                                assert_eq!(
                                    uf.find(m),
                                    root,
                                    "check_invariants: node {m} queued under stale partition \
                                     root {root}"
                                );
                            }
                            dirty_total += 1;
                        });
                    }
                }
            }
            // Marking frontier (Section 4.5): once all dirt has drained,
            // nothing consistent may sit downstream of anything inconsistent.
            if dirty_total == 0 {
                for i in 0..n_nodes {
                    let u = NodeId::from_index(i);
                    let f = inner.flags[i];
                    let stale = f & F_COMP != 0 && f & F_CONSISTENT == 0;
                    if !stale {
                        continue;
                    }
                    for v in inner.graph.succs(u) {
                        let g = inner.flags[v.index()];
                        if g & F_COMP != 0 {
                            assert!(
                                g & F_CONSISTENT == 0,
                                "check_invariants: marking frontier violated — consistent \
                                 node {v} depends on inconsistent node {u}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Number of dependency-graph nodes (locations + procedure instances).
    pub fn node_count(&self) -> usize {
        self.lock().graph.node_count()
    }

    /// Number of live dependency edges.
    pub fn edge_count(&self) -> usize {
        self.lock().graph.edge_count()
    }

    /// Number of nodes currently awaiting propagation.
    pub fn dirty_count(&self) -> usize {
        self.lock().dirty_len()
    }

    /// Returns `true` while an incremental procedure is executing — i.e.
    /// reads and writes performed now will be recorded as its dependencies.
    pub fn in_tracked_context(&self) -> bool {
        self.exec_depth.load(Ordering::Relaxed) > 0
    }

    /// Returns `true` if a read performed right now would actually record a
    /// dependence edge: an incremental procedure is executing, its frame is
    /// not stale, and no `(*UNCHECKED*)` suppression is active. Useful for
    /// asserting that statically pruned accesses really are irrelevant.
    pub fn recording_context(&self) -> bool {
        let mut inner = self.lock();
        matches!(inner.active_stack().last(), Some(f) if !f.stale && f.suppress == 0)
    }

    /// What kind of entity node `n` represents.
    ///
    /// # Panics
    ///
    /// Panics if `n` does not belong to this runtime.
    pub fn node_kind(&self, n: NodeId) -> NodeKind {
        if self.lock().flags[n.index()] & F_COMP != 0 {
            NodeKind::Computation
        } else {
            NodeKind::Location
        }
    }

    /// Runs `f` with dependence recording suppressed for the *current*
    /// incremental procedure — the `(*UNCHECKED*)` pragma of Section 6.4.
    ///
    /// Nested incremental procedures called inside `f` still track their own
    /// dependencies normally; only edges into the procedure executing at the
    /// time of this call are suppressed. Outside any incremental procedure
    /// this is a no-op wrapper.
    pub fn untracked<T>(&self, f: impl FnOnce() -> T) -> T {
        struct Guard<'a> {
            rt: &'a Runtime,
            depth: usize,
        }
        impl Drop for Guard<'_> {
            fn drop(&mut self) {
                let mut inner = self.rt.lock();
                let stack = inner.active_stack();
                if stack.len() == self.depth {
                    if let Some(frame) = stack.last_mut() {
                        frame.suppress -= 1;
                    }
                }
            }
        }
        let depth = {
            let mut inner = self.lock();
            let stack = inner.active_stack();
            if let Some(frame) = stack.last_mut() {
                frame.suppress += 1;
            }
            stack.len()
        };
        let _guard = Guard { rt: self, depth };
        f()
    }

    // ------------------------------------------------------------------
    // Low-level location API (the paper's `access`/`modify` operations).
    // ------------------------------------------------------------------

    /// Allocates a tracked storage location holding `initial`.
    ///
    /// This is the low-level API used by [`Var`](crate::Var) and by language
    /// front ends that manage their own storage; prefer
    /// [`Runtime::var`](crate::Runtime::var) in application code.
    pub fn raw_alloc(&self, initial: Box<dyn Value>) -> NodeId {
        self.lock().alloc_node(Some(initial), None, None)
    }

    /// Allocates a location holding `initial` *and* records the executing
    /// incremental procedure's dependence on it, under one guard — the
    /// lazy-promotion `access` of Algorithm 3, where a location read for
    /// the first time inside a tracked context gets its graph node and its
    /// first dependence edge together. Equivalent to [`Runtime::raw_alloc`]
    /// followed by a read, minus the second lock round-trip.
    pub(crate) fn alloc_accessed(&self, initial: Box<dyn Value>) -> NodeId {
        let mut inner = self.lock();
        inner.stats.reads += 1;
        inner.stats.borrow_reads += 1;
        let node = inner.alloc_node(Some(initial), None, None);
        emit!(inner, TraceEvent::Read { node });
        inner.record_dependence(node);
        node
    }

    /// Reads a location, recording the dependence of the currently executing
    /// incremental procedure (if any) on it — the paper's `access`
    /// (Algorithm 3).
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a location of this runtime.
    pub fn raw_read(&self, n: NodeId) -> Box<dyn Value> {
        let mut inner = self.lock();
        inner.stats.reads += 1;
        inner.stats.cloned_reads += 1;
        emit!(inner, TraceEvent::Read { node: n });
        inner.record_dependence(n);
        let i = n.index();
        debug_assert!(
            inner.flags[i] & F_COMP == 0,
            "raw_read on a computation node"
        );
        inner.values[i]
            .as_ref()
            .expect("location always holds a value")
            .dyn_clone()
    }

    /// Reads a location in place, without boxing or cloning the value: the
    /// borrow-based form of the paper's `access` (Algorithm 3). The
    /// dependence of the currently executing incremental procedure (if any)
    /// is recorded exactly as for [`Runtime::raw_read`], but the cached
    /// value is handed to `f` by reference instead of being cloned out.
    ///
    /// This is the hot-path read used by [`Var::get`](crate::Var::get) and
    /// [`Var::with`](crate::Var::with). Use [`Runtime::raw_read`] only when
    /// the value must outlive the read (escape the closure).
    ///
    /// The runtime is locked for the duration of `f`: the closure must not
    /// re-enter runtime operations (writes, memo calls, propagation, even
    /// reads) or the fail-stop re-entrancy check panics.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a location of this runtime.
    pub fn with_value<R>(&self, n: NodeId, f: impl FnOnce(&dyn Value) -> R) -> R {
        let mut inner = self.lock();
        inner.stats.reads += 1;
        inner.stats.borrow_reads += 1;
        emit!(inner, TraceEvent::Read { node: n });
        inner.record_dependence(n);
        let i = n.index();
        debug_assert!(
            inner.flags[i] & F_COMP == 0,
            "with_value on a computation node"
        );
        f(&**inner.values[i]
            .as_ref()
            .expect("location always holds a value"))
    }

    /// Writes a location — the paper's `modify` (Algorithm 4): the write
    /// first records a dependence (a procedure depends on storage it writes,
    /// Section 4.3), then stores the value, and dirties the node if the
    /// value actually changed.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a location of this runtime.
    pub fn raw_write(&self, n: NodeId, value: Box<dyn Value>) {
        let mut inner = self.lock();
        inner.stats.writes += 1;
        inner.write_location(n, value);
    }

    /// Hands out the runtime-owned batch buffers (empty, warm capacity) for
    /// a new transaction. A nested batch simply gets fresh empty buffers.
    pub(crate) fn take_batch_buffers(&self) -> (PendingWrites, Vec<usize>) {
        let mut inner = self.lock();
        (
            std::mem::take(&mut inner.batch_pending),
            std::mem::take(&mut inner.batch_slots),
        )
    }

    /// Commits a coalesced write transaction: one lock of the runtime for
    /// the whole set of writes, each applied with the same `modify`
    /// semantics as [`Runtime::raw_write`]. `pending` holds one entry per
    /// distinct written location (last write wins); `submitted` and
    /// `coalesced` are the transaction's raw tallies for the stats. The
    /// drained buffers are stowed back on the runtime for the next batch.
    pub(crate) fn commit_batch(
        &self,
        mut pending: PendingWrites,
        mut slots: Vec<usize>,
        submitted: u64,
        coalesced: u64,
    ) {
        let mut inner = self.lock();
        inner.stats.batches += 1;
        inner.stats.batched_writes += submitted;
        inner.stats.coalesced_writes += coalesced;
        emit!(
            inner,
            TraceEvent::BatchCommit {
                writes: submitted,
                coalesced,
                // The wave that will drain the queued dirt: the current one
                // when committing mid-propagation, otherwise the next to
                // begin.
                wave: if inner.evaluating {
                    inner.wave
                } else {
                    inner.wave + 1
                },
            }
        );
        for (n, value) in pending.drain(..) {
            slots[n.index()] = 0; // reset only the touched slots
            inner.stats.writes += 1;
            inner.write_location(n, value);
        }
        inner.batch_pending = pending;
        inner.batch_slots = slots;
    }

    // ------------------------------------------------------------------
    // Computation nodes (used by Memo; crate-internal).
    // ------------------------------------------------------------------

    /// Allocates a computation node for a new memo instance *and* books its
    /// first execution, all under one guard: the call and probe counters,
    /// node allocation and [`Runtime::exec_begin`] share the
    /// instance-creation path's single runtime lock. A fresh instance is
    /// about to execute unconditionally (it cannot be a cache hit and has
    /// no pending changes to settle first), so fusing the two halves saves
    /// a lock round-trip per instance created. The caller runs the
    /// body unlocked and completes with [`Runtime::finish_exec_recording`],
    /// passing back the returned generation.
    /// `height_hint` seeds the fresh node's evaluation priority from a
    /// statically computed stratum (see `Memo::set_height_hint`): the node
    /// starts at that height instead of 0, so the online raise step of
    /// later edge insertions usually has nothing to do. A hint of 0 is a
    /// no-op; an overestimate is harmless (the height queue tolerates
    /// conservative priorities — heights only order processing).
    pub(crate) fn alloc_comp_begun(
        &self,
        name: Arc<str>,
        strategy: Strategy,
        executor: Executor,
        height_hint: u32,
    ) -> (NodeId, u64) {
        let mut guard = self.lock();
        let inner = &mut *guard;
        inner.stats.calls += 1;
        inner.stats.memo_probes += 1;
        let n = inner.alloc_node(None, Some((strategy, executor)), Some(name));
        if height_hint > 0 && inner.graph.set_min_height(n, height_hint) {
            inner.stats.height_seeded += 1;
        }
        let my_gen = self.exec_begin(inner, n);
        (n, my_gen)
    }

    /// Pre-call settling plus cache consultation in (usually) one lock
    /// round-trip: tallies the call/probe counters, checks for pending
    /// changes that could affect `n` (the `Evaluate(Inconsistent)` step of
    /// Algorithm 5 — with partitioning, only `n`'s component), runs the
    /// evaluation routine if so, then probes the cache. On a hit the
    /// caller's dependence on `n` is recorded under the same guard and `f`
    /// runs on the cached value in place. On a miss the execution of `n`
    /// is booked under that same guard and `f` comes back unused with the
    /// execution's generation: the caller runs the body unlocked and
    /// completes with [`Runtime::finish_exec_recording`].
    ///
    /// Only the rare pending case pays more than one lock: the evaluation
    /// routine must run unlocked (it re-enters the runtime), so that path
    /// re-locks for the probe afterwards.
    pub(crate) fn precall_cached<R, F: FnOnce(&dyn Value) -> R>(
        &self,
        n: NodeId,
        f: F,
    ) -> Result<R, (F, u64)> {
        let mut guard = self.lock();
        let inner = &mut *guard;
        inner.stats.calls += 1;
        inner.stats.memo_probes += 1;
        let pending = if inner.evaluating {
            false
        } else {
            let root = inner.partition.as_mut().map(|uf| uf.find(n));
            match &mut inner.dirty {
                DirtyStore::Global(s) => !s.is_empty(),
                DirtyStore::Partitioned(m) => {
                    let root = root.expect("partitioned store implies union-find");
                    m.get(&root).is_some_and(|s| !s.is_empty())
                }
            }
        };
        if pending {
            drop(guard);
            self.evaluate(Some(n));
            guard = self.lock();
        }
        let inner = &mut *guard;
        self.try_hit(inner, n, f)
            .map_err(|f| (f, self.exec_begin(inner, n)))
    }

    /// Cache probe under the caller's guard: runs `f` on the cached value if
    /// the computation node is consistent, without cloning it out of the
    /// cache, and — on that hit — records the caller's dependence on `n`.
    /// Hands `f` back (without calling it or recording anything) on a
    /// miss: inconsistent, or consistent but evicted.
    fn try_hit<R, F: FnOnce(&dyn Value) -> R>(
        &self,
        inner: &mut Inner,
        n: NodeId,
        f: F,
    ) -> Result<R, F> {
        let i = n.index();
        debug_assert!(inner.flags[i] & F_COMP != 0, "computation node expected");
        if inner.flags[i] & F_CONSISTENT == 0 {
            return Err(f);
        }
        if inner.values[i].is_some() {
            inner.stats.cache_hits += 1;
            emit!(inner, TraceEvent::CacheHit { node: n });
            inner.record_dependence(n);
            let v = inner.values[i].as_ref().expect("checked above");
            return Ok(f(&**v));
        }
        // Consistent but value-less: either a self-recursive first
        // execution (DET violation — diagnose) or an evicted value
        // (recompute by reporting a miss).
        if inner.flags[i] & F_ON_STACK != 0 {
            panic!(
                "incremental procedure {} recursively depends on its own first execution \
                 (violates paper restriction DET)",
                inner.name_of(n)
            );
        }
        Err(f)
    }

    /// Tail of a memo execution booked by [`Runtime::alloc_comp_begun`] or
    /// [`Runtime::precall_cached`]: given the value the body computed
    /// unlocked, finishes the execution, records the caller's dependence on
    /// `n` and runs `f` on the result — the commit, the dependence edge and
    /// the read all share one guard. `f` sees the committed value in the
    /// common case, or the superseded execution's uncommitted result when a
    /// nested re-execution won the generation race (Section 7.3
    /// re-entrancy).
    pub(crate) fn finish_exec_recording<R>(
        &self,
        n: NodeId,
        my_gen: u64,
        value: Box<dyn Value>,
        f: impl FnOnce(&dyn Value) -> R,
    ) -> R {
        let mut guard = self.lock();
        let inner = &mut *guard;
        let (uncommitted, _) = self.exec_end(inner, n, my_gen, value);
        inner.record_dependence(n);
        match uncommitted {
            Some(v) => f(&*v),
            None => {
                let v = inner.values[n.index()]
                    .as_ref()
                    .expect("execution just committed a value");
                f(&**v)
            }
        }
    }

    /// First half of re-executing computation node `n` per Algorithm 5
    /// (see [`Runtime::precall_cached`] and the evaluation loop): drops its
    /// old dependencies, books the execution and pushes the call frame,
    /// handing back the execution's generation; the body then runs
    /// *outside* the lock. Takes the caller's guard so booking can share a
    /// lock round-trip with whatever precedes it (the cache probe on the
    /// memo call path, the dirty-node pop in the evaluation loop).
    ///
    /// Re-entrant executions (an instance re-executing while an older
    /// execution of the same instance is still on the stack, as the AVL
    /// `balance` method of Section 7.3 provokes after rotations) are
    /// resolved by generation stamps: only the latest-started execution
    /// commits to the cache; a superseded outer execution still returns its
    /// computed value to its caller (the `Some` case of
    /// [`Runtime::exec_end`]) but leaves cache, consistency flag and
    /// dependency edges to the fresher run.
    fn exec_begin(&self, inner: &mut Inner, n: NodeId) -> u64 {
        let (my_gen, frame) = self.exec_book(inner, n);
        self.push_frame(inner, frame);
        my_gen
    }

    /// The bookkeeping half of [`Runtime::exec_begin`]: everything except
    /// pushing the call frame. The level-parallel scheduler books a whole
    /// batch under one guard on the driver thread and hands each returned
    /// frame to the worker that will run the executor (the frame must live
    /// on the *executing* thread's stack for dependence recording to target
    /// it); the sequential path pushes it straight onto the current stack.
    fn exec_book(&self, inner: &mut Inner, n: NodeId) -> (u64, Frame) {
        inner.stats.executions += 1;
        let before = inner.graph.edges_removed();
        inner.graph.remove_pred_edges(n);
        let removed = inner.graph.edges_removed() - before;
        inner.stats.edges_removed += removed;
        inner.exec_gen += 1;
        let my_gen = inner.exec_gen;
        let i = n.index();
        debug_assert!(inner.flags[i] & F_COMP != 0, "execute on a location");
        // If an older execution of `n` is still running it is now
        // superseded: its result will be discarded, so stop it from
        // recording any further dependence edges.
        if inner.flags[i] & F_ON_STACK != 0 {
            inner.mark_stale_frames(n);
        }
        inner.flags[i] |= F_CONSISTENT;
        inner.on_stack_inc(i);
        inner.gens[i] = my_gen;
        inner.frame_epoch += 1;
        let epoch = inner.frame_epoch;
        let frame = Frame {
            node: n,
            epoch,
            overflow: Vec::new(),
            suppress: 0,
            stale: false,
        };
        #[cfg(feature = "trace")]
        {
            emit!(inner, TraceEvent::ExecuteBegin { node: n });
            if removed > 0 {
                emit!(
                    inner,
                    TraceEvent::EdgesRemoved {
                        node: n,
                        count: removed,
                    }
                );
            }
        }
        (my_gen, frame)
    }

    /// Second half of an execution: pops the call frame and commits (or,
    /// when superseded — the `Some` return — hands back) the computed
    /// value, plus whether the cache changed. Runs
    /// under the caller's guard so the commit can share a lock round-trip
    /// with whatever follows it (successor dirtying in the evaluation loop,
    /// dependence recording on the memo call path).
    fn exec_end(
        &self,
        inner: &mut Inner,
        n: NodeId,
        my_gen: u64,
        value: Box<dyn Value>,
    ) -> (Option<Box<dyn Value>>, bool) {
        self.pop_frame(inner, n);
        self.exec_commit(inner, n, my_gen, value)
    }

    /// Pushes a booked frame onto the current thread's call stack. The
    /// `exec_depth` shadow is a plain load and store because the caller's
    /// guard orders every update (see [`Runtime::exec_depth`]).
    fn push_frame(&self, inner: &mut Inner, frame: Frame) {
        inner.active_stack().push(frame);
        let depth = self.exec_depth.load(Ordering::Relaxed);
        self.exec_depth.store(depth + 1, Ordering::Relaxed);
    }

    /// The frame half of [`Runtime::exec_end`]: pops the current thread's
    /// innermost frame, restores overwritten dedup stamps and drops the
    /// node's on-stack depth. Under level-parallel draining each worker
    /// pops its own frame as soon as its executor returns (before the
    /// level's barrier), so re-queued dirt never sees a dead frame.
    fn pop_frame(&self, inner: &mut Inner, n: NodeId) {
        let frame = inner.active_stack().pop().expect("frame pushed above");
        let depth = self.exec_depth.load(Ordering::Relaxed);
        self.exec_depth.store(depth - 1, Ordering::Relaxed);
        debug_assert_eq!(frame.node, n, "call stack imbalance");
        // Restore the stamps this frame overwrote, newest first, so the
        // enclosing execution's dedup set is exactly what it was before the
        // nested call (a node stamped by several nested frames gets its
        // oldest surviving stamp back).
        for (node, stamp) in frame.overflow.into_iter().rev() {
            inner.last_accessed[node.index()] = stamp;
        }
        inner.on_stack_dec(n.index());
    }

    /// The commit half of [`Runtime::exec_end`]: generation supersession
    /// check, cutoff comparison, cache store and re-queue handling. The
    /// level-parallel scheduler commits a whole level's results in batch
    /// order under one guard; the sequential path commits immediately after
    /// popping the frame.
    fn exec_commit(
        &self,
        inner: &mut Inner,
        n: NodeId,
        my_gen: u64,
        value: Box<dyn Value>,
    ) -> (Option<Box<dyn Value>>, bool) {
        let i = n.index();
        let superseded = inner.gens[i] != my_gen;
        let requeue = if superseded {
            false
        } else {
            let r = inner.flags[i] & F_REQUEUE != 0;
            inner.flags[i] &= !F_REQUEUE;
            r
        };
        if superseded {
            // A nested execution superseded this one; its cache entry is the
            // one that matches the current program state. Hand our value to
            // the caller without committing it.
            emit!(
                inner,
                TraceEvent::ExecuteEnd {
                    node: n,
                    changed: false,
                }
            );
            return (Some(value), false);
        }
        // A first execution has no previous value: it counts as changed
        // without charging a cutoff comparison.
        let (changed, compared) = match &inner.values[i] {
            Some(old) => (!old.dyn_eq(&*value), true),
            None => (true, false),
        };
        inner.values[i] = Some(value);
        if compared {
            inner.stats.comparisons += 1;
            if !changed {
                // The body ran and reproduced the cached value: real work,
                // no downstream effect. Waves report this share through the
                // `wave_wasted` metrics histogram.
                inner.stats.wasted_executions += 1;
            }
        }
        emit!(inner, TraceEvent::ExecuteEnd { node: n, changed });
        #[cfg(feature = "trace")]
        if compared && !changed {
            emit!(inner, TraceEvent::CutoffStop { node: n });
        }
        if requeue {
            inner.insert_dirty(n, DirtyReason::Requeue, None);
        }
        (None, changed)
    }

    /// Explains why a node has its current value: lists its recorded
    /// dependencies (the paper's referenced-argument set `R(p)`), one line
    /// per predecessor with kind, diagnostic name and cached value.
    ///
    /// This realizes the "sophisticated debugging" benefit the paper's
    /// introduction attributes to the maintained dependency information.
    ///
    /// # Panics
    ///
    /// Panics if `n` does not belong to this runtime.
    pub fn explain(&self, n: NodeId) -> String {
        use std::fmt::Write;
        let mut guard = self.lock();
        let inner = &mut *guard;
        let describe = |inner: &Inner, id: NodeId| -> String {
            let i = id.index();
            let f = inner.flags[i];
            let kind = if f & F_COMP == 0 {
                "location".to_string()
            } else {
                format!(
                    "instance of {} ({})",
                    inner.name_of(id),
                    if f & F_CONSISTENT != 0 {
                        "consistent"
                    } else {
                        "stale"
                    }
                )
            };
            let value = inner.values[i]
                .as_ref()
                .map(|v| format!("{v:?}"))
                .unwrap_or_else(|| "<never computed>".to_string());
            format!("{id}: {kind} = {value}")
        };
        let mut out = describe(inner, n);
        out.push('\n');
        // Predecessors are staged through the runtime-owned scratch buffer
        // (same pattern as `dirty_succs_of`), so this diagnostic allocates
        // nothing beyond the output string at steady state.
        let mut preds = std::mem::take(&mut inner.succ_scratch);
        inner.graph.preds_into(n, &mut preds);
        preds.sort_unstable();
        preds.dedup();
        if preds.is_empty() {
            out.push_str("  (no recorded dependencies)\n");
        }
        for &p in &preds {
            let _ = writeln!(out, "  depends on {}", describe(inner, p));
        }
        inner.succ_scratch = preds;
        out
    }

    /// Renders the dependency graph in a human-readable form: one line per
    /// node with its kind, diagnostic name, height, consistency and
    /// successors. Intended for debugging and tests.
    pub fn dump_graph(&self) -> String {
        use std::fmt::Write;
        let mut guard = self.lock();
        let inner = &mut *guard;
        let mut out = String::new();
        // Successors are staged through the reusable scratch buffer and
        // written straight into the output, instead of collecting a fresh
        // `Vec<String>` per node.
        let mut succs = std::mem::take(&mut inner.succ_scratch);
        for i in 0..inner.values.len() {
            let n = NodeId::from_index(i);
            let f = inner.flags[i];
            let kind = if f & F_COMP == 0 {
                "loc ".to_string()
            } else {
                format!(
                    "comp({}{})",
                    if f & F_CONSISTENT != 0 { "ok" } else { "dirty" },
                    if f & F_EAGER != 0 { ",eager" } else { "" }
                )
            };
            let name = inner.names.get(&(i as u32)).map(|s| &**s).unwrap_or("-");
            inner.graph.succs_into(n, &mut succs);
            let _ = write!(
                out,
                "{n} {kind} {name} h={} v={:?} -> [",
                inner.graph.height(n),
                inner.values[i].as_ref().map(|v| format!("{v:?}")),
            );
            for (k, s) in succs.iter().enumerate() {
                if k > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{s}");
            }
            out.push_str("]\n");
        }
        inner.succ_scratch = succs;
        out
    }

    /// Runs quiescence propagation until every inconsistent set is empty —
    /// the paper's evaluation routine, intended to be "called whenever
    /// cycles are available" (Section 4.5). Eager procedures re-execute
    /// here; demand procedures are only marked out-of-date.
    pub fn propagate(&self) {
        self.evaluate_bounded(None, u64::MAX);
    }

    /// Runs at most `max_steps` propagation steps, then yields — the
    /// preemptible form of the evaluation routine (Section 4.5: "can be
    /// preempted when necessary"). Returns `true` if the inconsistent sets
    /// are fully drained, `false` if work remains for a later slice.
    ///
    /// # Example
    ///
    /// ```
    /// use alphonse::{Runtime, Strategy};
    /// let rt = Runtime::new();
    /// let v = rt.var(0i64);
    /// let m = rt.memo_with("watch", Strategy::Eager, move |rt, &(): &()| v.get(rt));
    /// m.call(&rt, ());
    /// v.set(&rt, 1);
    /// while !rt.propagate_steps(1) {
    ///     // interleave other work here
    /// }
    /// assert_eq!(rt.dirty_count(), 0);
    /// ```
    pub fn propagate_steps(&self, max_steps: u64) -> bool {
        self.evaluate_bounded(None, max_steps);
        self.dirty_count() == 0
    }

    // Capacity / eviction support (used by bounded memos).

    pub(crate) fn node_has_value(&self, n: NodeId) -> bool {
        self.lock().values[n.index()].is_some()
    }

    pub(crate) fn node_on_stack(&self, n: NodeId) -> bool {
        self.lock().flags[n.index()] & F_ON_STACK != 0
    }

    /// Drops the cached value of a computation node, forcing recomputation
    /// on its next call. The consistency flag and dependency edges are
    /// deliberately untouched: flipping the flag without queueing the
    /// node's successors would violate the marking frontier invariant
    /// ("successors of an inconsistent node are already inconsistent"), and
    /// the edges are what keeps change propagation through the evicted
    /// instance sound. An evicted node is thus "consistent but value-less":
    /// its dependents' cached results are still valid, only *its* result
    /// must be recomputed when next demanded.
    pub(crate) fn evict_value(&self, n: NodeId) {
        let mut inner = self.lock();
        let i = n.index();
        debug_assert!(
            inner.flags[i] & F_COMP != 0 && inner.flags[i] & F_ON_STACK == 0,
            "cannot evict an executing instance"
        );
        inner.values[i] = None;
    }

    fn evaluate(&self, origin: Option<NodeId>) {
        self.evaluate_bounded(origin, u64::MAX);
    }

    /// Core evaluation loop (Section 4.5). `origin`: evaluate only the
    /// partition containing this node; `None`: evaluate everything.
    /// `max_steps` bounds the number of dirty nodes processed (preemption).
    fn evaluate_bounded(&self, origin: Option<NodeId>, max_steps: u64) {
        #[cfg(feature = "trace")]
        let steps_before;
        #[cfg(feature = "metrics")]
        let (execs_before, wasted_before);
        #[cfg(feature = "parallel")]
        let level_mode;
        {
            let mut inner = self.lock();
            if inner.evaluating {
                return;
            }
            inner.evaluating = true;
            inner.wave += 1;
            inner.stats.waves += 1;
            #[cfg(feature = "trace")]
            {
                steps_before = inner.stats.propagation_steps;
            }
            #[cfg(feature = "metrics")]
            {
                execs_before = inner.stats.executions;
                wasted_before = inner.stats.wasted_executions;
            }
            // Level draining requires the default configuration: a single
            // global inconsistent set (so one `pop_level` sees the whole
            // frontier; `origin` is then irrelevant — the sequential
            // evaluator also drains the global set regardless of origin)
            // and height-order scheduling (Fifo has no independence
            // guarantee between queue neighbours).
            #[cfg(feature = "parallel")]
            {
                level_mode = inner.parallelism >= 1
                    && inner.scheduling == Scheduling::HeightOrder
                    && matches!(inner.dirty, DirtyStore::Global(_));
            }
            emit!(inner, TraceEvent::PropagateBegin { wave: inner.wave });
        }
        // Wave clock: stamped outside the lock, after the nested-wave early
        // return, so only real (outermost) waves are timed and a disabled
        // switch skips the clock read entirely.
        #[cfg(feature = "metrics")]
        let wave_t0 = crate::metrics::enabled().then(std::time::Instant::now);
        #[cfg(feature = "parallel")]
        if level_mode {
            self.drain_levels(max_steps);
        } else {
            self.drain_sequential(origin, max_steps);
        }
        #[cfg(not(feature = "parallel"))]
        self.drain_sequential(origin, max_steps);
        let mut inner = self.lock();
        inner.evaluating = false;
        emit!(
            inner,
            TraceEvent::PropagateEnd {
                wave: inner.wave,
                steps: inner.stats.propagation_steps - steps_before,
            }
        );
        #[cfg(feature = "metrics")]
        {
            // Per-wave work deltas come from the counters while the guard
            // is still held; the histogram writes happen after it drops —
            // metric recording itself never holds the runtime lock.
            let executed = inner.stats.executions - execs_before;
            let wasted = inner.stats.wasted_executions - wasted_before;
            drop(inner);
            if let Some(t0) = wave_t0 {
                self.metrics
                    .record_wave(t0.elapsed().as_nanos() as u64, executed, wasted);
            }
        }
    }

    /// The paper's sequential drain, one dirty node at a time in scheduling
    /// order. Each pass through the outer loop holds the lock once: commit
    /// the previous execution, pump mutation-only steps, and book the next
    /// execution, all under the same guard — one amortized lock round-trip
    /// per executed node. Only the executor itself (which re-enters the
    /// runtime through tracked reads and nested calls) runs unlocked.
    fn drain_sequential(&self, origin: Option<NodeId>, max_steps: u64) {
        let mut steps = 0u64;
        let mut running: Option<(NodeId, Executor, u64)> = None;
        loop {
            let finished = running.take().map(|(u, executor, my_gen)| {
                let value = executor(self);
                (u, my_gen, value)
            });
            let mut guard = self.lock();
            let inner = &mut *guard;
            if let Some((u, my_gen, value)) = finished {
                let (_, changed) = self.exec_end(inner, u, my_gen, value);
                if changed {
                    inner.dirty_succs_of(u);
                }
            }
            while steps < max_steps {
                steps += 1;
                match self.evaluation_step(inner, origin) {
                    Step::Idle => break,
                    Step::Continue => {}
                    Step::Execute(u) => {
                        let my_gen = self.exec_begin(inner, u);
                        running = Some((u, inner.executor(u), my_gen));
                        break;
                    }
                }
            }
            if running.is_none() {
                break;
            }
        }
    }

    /// Level-parallel drain: processes the inconsistent set one *height
    /// level* at a time. All dirty nodes at the current minimum height are
    /// mutually independent (an edge between two nodes forces a height
    /// difference), so the level's eager executors may run concurrently.
    ///
    /// Lock discipline per level — one driver acquisition on each side of
    /// the execution window:
    ///
    /// 1. **Drain + book** (one guard): `pop_level` the batch, handle
    ///    mutation-only nodes (locations, demand marking, on-stack
    ///    re-queue) inline, book every eager node (`exec_book`, in batch
    ///    order — deterministic, matching the sequential pop order) and
    ///    enqueue the worker jobs.
    /// 2. **Execute** (no driver lock): workers push their frames, run the
    ///    executors and pop their frames, taking the lock only for those
    ///    short sections and for tracked reads; `par_active` makes
    ///    contention block instead of tripping the re-entrancy panic. With
    ///    `parallelism <= 1` or a single-node batch the driver runs the
    ///    executors inline instead.
    /// 3. **Commit** (one guard): store each result in batch order
    ///    (generation check, cutoff comparison), dirty the successors of
    ///    changed nodes, close the `LevelEnd` bracket and update the
    ///    parallel stats.
    ///
    /// The `max_steps` preemption bound is checked between levels (a level
    /// is never split), so bounded drains are level-granular here — coarser
    /// than the sequential evaluator's per-node bound but with the same
    /// contract: remaining work stays queued for a later slice.
    #[cfg(feature = "parallel")]
    #[cfg_attr(not(feature = "trace"), allow(unused_variables))] // `height` feeds the trace brackets
    fn drain_levels(&self, max_steps: u64) {
        use std::sync::mpsc::channel;
        let mut steps = 0u64;
        let mut batch: Vec<NodeId> = Vec::new();
        let mut booked: Vec<(NodeId, Executor, u64, Option<Frame>)> = Vec::new();
        loop {
            if steps >= max_steps {
                break;
            }
            let mut guard = self.lock();
            let inner = &mut *guard;
            batch.clear();
            let DirtyStore::Global(dirty) = &mut inner.dirty else {
                unreachable!("level mode requires the global dirty store");
            };
            let Some(height) = dirty.pop_level(&mut batch) else {
                break;
            };
            let width = batch.len() as u64;
            inner.stats.level_width_hwm = inner.stats.level_width_hwm.max(width);
            #[cfg(feature = "metrics")]
            self.metrics.level_width.record(width);
            emit!(
                inner,
                TraceEvent::LevelBegin {
                    wave: inner.wave,
                    height,
                    width,
                }
            );
            booked.clear();
            for &u in &batch {
                steps += 1;
                inner.stats.propagation_steps += 1;
                let i = u.index();
                let f = inner.flags[i];
                if f & F_COMP == 0 {
                    // Storage location: forward the change to everything
                    // computed from it. Successors sit at strictly greater
                    // heights, so they join later levels, never this batch.
                    inner.dirty_succs_of(u);
                } else if f & F_EAGER == 0 {
                    // Demand: just mark out-of-date and propagate.
                    if f & F_CONSISTENT != 0 {
                        inner.flags[i] &= !F_CONSISTENT;
                        inner.dirty_succs_of(u);
                    }
                } else if f & F_ON_STACK != 0 {
                    // Mid-execution (a nested drain under a live memo
                    // frame): mark stale and re-queue on completion.
                    inner.flags[i] &= !F_CONSISTENT;
                    inner.flags[i] |= F_REQUEUE;
                    inner.dirty_succs_of(u);
                } else {
                    let (my_gen, frame) = self.exec_book(inner, u);
                    booked.push((u, inner.executor(u), my_gen, Some(frame)));
                }
            }
            let executed = booked.len() as u64;
            let pooled = booked.len() >= 2 && inner.parallelism >= 2;
            if pooled {
                let workers = inner.parallelism;
                if inner
                    .exec_pool
                    .as_ref()
                    .is_none_or(|p| p.workers() != workers)
                {
                    inner.exec_pool = Some(crate::exec_pool::ExecPool::new(
                        workers,
                        Arc::clone(&self.metrics),
                    ));
                }
                while inner.worker_stacks.len() < workers {
                    inner.worker_stacks.push(Vec::new());
                }
                inner.stats.parallel_levels += 1;
                inner.stats.parallel_executions += executed;
                // Workers may contend for the lock from here on: flip the
                // blocking-lock mode before the first job can start (jobs
                // are submitted below while this guard is still held, so no
                // worker can observe the flag too early).
                self.par_active.fetch_add(1, Ordering::Release);
                #[cfg(feature = "metrics")]
                let level_t0 = crate::metrics::enabled().then(std::time::Instant::now);
                let (tx, rx) = channel::<(usize, Box<dyn Value>)>();
                let pool = inner.exec_pool.as_ref().expect("created above");
                for (idx, (u, executor, _, frame)) in booked.iter_mut().enumerate() {
                    let rt = self.clone();
                    let u = *u;
                    let executor = Arc::clone(executor);
                    let frame = frame.take().expect("frame booked above");
                    let tx = tx.clone();
                    pool.submit(mem::with(mem::Tag::ExecPool, || {
                        Box::new(move || {
                            rt.run_pooled_exec(u, frame, &executor, idx, &tx);
                        })
                    }));
                }
                drop(tx);
                drop(guard);
                // Level barrier: wait for every executor. A worker whose
                // job panicked drops its sender without sending; surface
                // that as the driver-side panic the sequential path would
                // have had.
                let mut results: Vec<Option<Box<dyn Value>>> =
                    (0..booked.len()).map(|_| None).collect();
                let mut received = 0usize;
                for (idx, value) in rx {
                    results[idx] = Some(value);
                    received += 1;
                }
                self.par_active.fetch_sub(1, Ordering::Release);
                #[cfg(feature = "metrics")]
                if let Some(t0) = level_t0 {
                    self.metrics
                        .level_latency_ns
                        .record(t0.elapsed().as_nanos() as u64);
                }
                assert_eq!(
                    received,
                    booked.len(),
                    "an executor panicked on a worker thread; the runtime is in an \
                     unspecified state"
                );
                let mut guard = self.lock();
                let inner = &mut *guard;
                for ((u, _, my_gen, _), value) in booked.drain(..).zip(results.drain(..)) {
                    let value = value.expect("all results received");
                    let (_, changed) = self.exec_commit(inner, u, my_gen, value);
                    if changed {
                        inner.dirty_succs_of(u);
                    }
                }
                emit!(
                    inner,
                    TraceEvent::LevelEnd {
                        wave: inner.wave,
                        height,
                        executed,
                    }
                );
            } else {
                // Inline execution (parallelism <= 1, or a level with at
                // most one eager node): same batching and brackets as the
                // pooled path, zero worker threads. Results still commit
                // together after the whole level has run, so `1` is an
                // honest single-worker control.
                drop(guard);
                let mut results: Vec<Box<dyn Value>> = Vec::with_capacity(booked.len());
                for (u, executor, _, frame) in booked.iter_mut() {
                    let frame = frame.take().expect("frame booked above");
                    self.push_frame(&mut self.lock(), frame);
                    let value = executor(self);
                    self.pop_frame(&mut self.lock(), *u);
                    results.push(value);
                }
                let mut guard = self.lock();
                let inner = &mut *guard;
                for ((u, _, my_gen, _), value) in booked.drain(..).zip(results.drain(..)) {
                    let (_, changed) = self.exec_commit(inner, u, my_gen, value);
                    if changed {
                        inner.dirty_succs_of(u);
                    }
                }
                emit!(
                    inner,
                    TraceEvent::LevelEnd {
                        wave: inner.wave,
                        height,
                        executed,
                    }
                );
            }
        }
    }

    /// One pooled execution, run on a worker thread: push the pre-booked
    /// frame onto this worker's stack, run the executor (its tracked reads
    /// and nested memo calls take the blocking lock and record against this
    /// worker's frame), pop the frame, and ship the result to the driver
    /// for the level's batch commit.
    #[cfg(feature = "parallel")]
    fn run_pooled_exec(
        &self,
        n: NodeId,
        frame: Frame,
        executor: &Executor,
        idx: usize,
        tx: &std::sync::mpsc::Sender<(usize, Box<dyn Value>)>,
    ) {
        self.push_frame(&mut self.lock(), frame);
        let value = executor(self);
        self.pop_frame(&mut self.lock(), n);
        let _ = tx.send((idx, value));
    }

    /// Pops and processes one dirty node; mutation-only cases are handled
    /// inline, eager re-execution is returned to the caller so the lock
    /// can be released first. The whole decision reads one flag byte.
    fn evaluation_step(&self, inner: &mut Inner, origin: Option<NodeId>) -> Step {
        // Partitions may have merged since the last step; re-find each time.
        let root = match origin {
            Some(o) => inner.partition.as_mut().map(|uf| uf.find(o)),
            None => None,
        };
        let popped = match (&mut inner.dirty, root) {
            (DirtyStore::Global(s), _) => s.pop(),
            (DirtyStore::Partitioned(m), Some(root)) => m.get_mut(&root).and_then(DirtySet::pop),
            (DirtyStore::Partitioned(m), None) => m.values_mut().find_map(|s| s.pop()),
        };
        let Some(u) = popped else {
            return Step::Idle;
        };
        inner.stats.propagation_steps += 1;
        let i = u.index();
        let f = inner.flags[i];
        if f & F_COMP == 0 {
            // Storage location: forward the change to everything computed
            // from it.
            inner.dirty_succs_of(u);
            Step::Continue
        } else if f & F_EAGER == 0 {
            // Demand: just mark out-of-date and propagate (Section 4.5).
            if f & F_CONSISTENT != 0 {
                inner.flags[i] &= !F_CONSISTENT;
                inner.dirty_succs_of(u);
            }
            Step::Continue
        } else if f & F_ON_STACK != 0 {
            // Cannot re-execute a node that is mid-execution; mark it stale
            // and have it re-queued on completion.
            inner.flags[i] &= !F_CONSISTENT;
            inner.flags[i] |= F_REQUEUE;
            inner.dirty_succs_of(u);
            Step::Continue
        } else {
            // Eager: re-execute now; if the value changes the caller
            // dirties the successors.
            Step::Execute(u)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_locations_read_back_written_values() {
        let rt = Runtime::new();
        let n = rt.raw_alloc(Box::new(5i64));
        assert_eq!(rt.node_kind(n), NodeKind::Location);
        let v = rt.raw_read(n);
        assert!(v.dyn_eq(&5i64));
        rt.raw_write(n, Box::new(9i64));
        assert!(rt.raw_read(n).dyn_eq(&9i64));
    }

    #[test]
    fn writes_outside_procedures_do_not_create_edges() {
        let rt = Runtime::new();
        let n = rt.raw_alloc(Box::new(1i64));
        rt.raw_write(n, Box::new(2i64));
        let _ = rt.raw_read(n);
        assert_eq!(rt.edge_count(), 0);
        assert_eq!(rt.stats().reads, 1);
        assert_eq!(rt.stats().writes, 1);
    }

    #[test]
    fn unchanged_write_does_not_dirty() {
        let rt = Runtime::new();
        let n = rt.raw_alloc(Box::new(1i64));
        // Give the location a reader so writes are propagation-relevant.
        let probe = rt.memo("probe", move |rt, &(): &()| {
            crate::value::downcast_value::<i64>(&*rt.raw_read(n), "probe")
        });
        probe.call(&rt, ());
        rt.raw_write(n, Box::new(1i64));
        assert_eq!(rt.dirty_count(), 0, "unchanged value: no propagation");
        rt.raw_write(n, Box::new(2i64));
        assert_eq!(rt.dirty_count(), 1);
        assert_eq!(rt.stats().changes, 1);
    }

    #[test]
    fn readerless_writes_never_dirty() {
        // Algorithm 4 guards with `nodeptr(l) # NIL`: a location no
        // incremental instance has read needs no propagation.
        let rt = Runtime::new();
        let n = rt.raw_alloc(Box::new(1i64));
        rt.raw_write(n, Box::new(2i64));
        rt.raw_write(n, Box::new(3i64));
        assert_eq!(rt.dirty_count(), 0);
        assert_eq!(rt.stats().changes, 2);
    }

    #[test]
    fn untracked_outside_procedure_is_noop() {
        let rt = Runtime::new();
        let n = rt.raw_alloc(Box::new(1i64));
        let v = rt.untracked(|| rt.raw_read(n));
        assert!(v.dyn_eq(&1i64));
        assert!(!rt.in_tracked_context());
    }

    #[test]
    fn runtime_debug_is_nonempty() {
        let rt = Runtime::new();
        assert!(format!("{rt:?}").contains("Runtime"));
    }

    #[test]
    fn builder_configures_partitioning_and_scheduling() {
        let rt = Runtime::builder()
            .partitioning(true)
            .scheduling(Scheduling::Fifo)
            .dedup_edges(false)
            .build();
        assert!(rt.is_partitioned());
        assert_eq!(rt.scheduling(), Scheduling::Fifo);
    }

    #[test]
    fn distinct_runtimes_have_distinct_ids() {
        let a = Runtime::new();
        let b = Runtime::new();
        assert_ne!(a.id, b.id);
        assert_eq!(a.clone().id, a.id);
    }

    #[test]
    fn propagate_on_clean_runtime_is_noop() {
        let rt = Runtime::new();
        rt.propagate();
        assert_eq!(rt.stats().propagation_steps, 0);
    }

    #[test]
    fn memory_gauges_grow_with_the_graph() {
        let rt = Runtime::new();
        let base = rt.stats();
        let a = rt.var(1i64);
        let m = rt.memo("m", move |rt, &(): &()| a.get(rt) + 1);
        m.call(&rt, ());
        let s = rt.stats();
        assert_eq!(s.mem_nodes - base.mem_nodes, 2);
        assert!(s.mem_edges_hwm >= 1);
        assert!(s.mem_bytes_hwm > 0);
        let (nodes, edges, bytes) = rt.memory_footprint();
        assert_eq!(nodes, 2);
        assert_eq!(edges, 1);
        assert!(bytes >= s.mem_nodes); // at least a byte per node, trivially
    }

    #[test]
    fn runtime_and_handles_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Runtime>();
        assert_send::<crate::Var<i64>>();
    }

    #[test]
    fn runtime_moves_across_threads() {
        let rt = Runtime::new();
        let x = rt.var(1i64);
        let m = rt.memo("double", move |rt, &(): &()| x.get(rt) * 2);
        assert_eq!(m.call(&rt, ()), 2);
        let handle = std::thread::spawn(move || {
            x.set(&rt, 21);
            m.call(&rt, ())
        });
        assert_eq!(handle.join().unwrap(), 42);
    }
}
