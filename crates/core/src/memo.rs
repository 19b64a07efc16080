//! Incremental procedures: cached functions and maintained methods.

use crate::fxhash::FxHashMap;
use crate::runtime::{Executor, Runtime, Strategy};
use crate::value::{downcast_ref, Value};
use alphonse_graph::NodeId;
use alphonse_mem as mem;
use std::fmt;
use std::hash::Hash;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Bound required of memo argument vectors: they key the *argument table*
/// of Section 4.2, so they must be hashable, comparable and clonable —
/// plus `Send + Sync`, because the argument vector is captured by the
/// instance's re-execution closure and sessions move across threads.
pub trait MemoArgs: Eq + Hash + Clone + Send + Sync + 'static {}
impl<T: Eq + Hash + Clone + Send + Sync + 'static> MemoArgs for T {}

/// Bound required of memo results: cached values participate in quiescence
/// cutoff, so they must be comparable, and are handed out by clone.
pub trait MemoResult: Value + PartialEq + Clone {}
impl<T: Value + PartialEq + Clone> MemoResult for T {}

/// One argument-table entry with its LRU stamp.
struct Entry {
    node: NodeId,
    last_use: u64,
}

/// A procedure body. It receives the memo it belongs to from whoever runs
/// it — the caller's handle on the demand path, the executor's on the
/// propagation path — so a recursive body can call itself without the
/// memo holding a reference to itself.
type Body<A, R> = Box<dyn Fn(&Runtime, &Memo<A, R>, &A) -> R + Send + Sync>;

pub(crate) struct MemoInner<A, R> {
    name: Arc<str>,
    strategy: Strategy,
    rt_id: u64,
    /// Maximum number of instance *values* kept live (paper Section 3.3:
    /// "additional pragma arguments allow the specification of … cache
    /// size, and the replacement algorithm"). `None` = unbounded.
    capacity: Option<usize>,
    f: Body<A, R>,
    /// The paper's *argument table* (Section 4.2): one dependency-graph node
    /// per distinct argument vector. FxHash-keyed: probed on every call.
    /// Locked with the same single-thread discipline as the runtime's own
    /// state (sessions are `Send`, not `Sync`), so the lock is uncontended;
    /// it is scoped tightly in `settle` so body re-execution — which may
    /// recursively call back into this memo — never holds it.
    table: Mutex<Table<A>>,
    /// Single-instance shortcut for zero-sized argument types: an inhabited
    /// ZST has exactly one value, so the argument table holds at most one
    /// entry. Its node is published here by the first call; every later
    /// call is one atomic load instead of a table lock plus LRU stamp.
    single: OnceLock<NodeId>,
    /// Values dropped by the replacement policy so far.
    evictions: AtomicU64,
    /// Static-stratum seed applied to fresh instance nodes (see
    /// [`Memo::set_height_hint`]). Zero means "no hint". Atomic because
    /// the hint is set through a shared handle; only ever loaded and
    /// stored, never read-modify-written.
    height_hint: AtomicU32,
}

/// The guarded argument-table state: the instance map plus the logical
/// clock for LRU stamps (advanced under the same lock as the probe that
/// uses it, so stamping costs no extra atomic).
struct Table<A> {
    map: FxHashMap<A, Entry>,
    clock: u64,
}

impl<A> Default for Table<A> {
    fn default() -> Self {
        Table {
            map: FxHashMap::default(),
            clock: 0,
        }
    }
}

impl<A, R> MemoInner<A, R> {
    /// Locks the argument table; a poisoned lock (panic unwound out of a
    /// memo operation) is entered anyway, matching the runtime's
    /// unspecified-but-memory-safe post-panic contract.
    fn table(&self) -> MutexGuard<'_, Table<A>> {
        self.table.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// An incremental procedure: a function whose calls are cached per argument
/// vector and kept consistent under mutation of everything it read.
///
/// `Memo` unifies the paper's two pragmas. A `(*CACHED*)` procedure and a
/// `(*MAINTAINED*)` method are both *incremental procedure instances*
/// (Section 3.3): each distinct argument vector gets a dependency-graph node
/// whose cached value is reused until some read location or callee result
/// changes. Unlike classical function caching, the body may freely read
/// tracked global state ([`Var`](crate::Var)s) — the paper's lifting of the
/// *combinator* restriction (Section 4.2) — and may even write tracked
/// state, as the AVL `balance` method of Section 7.3 does.
///
/// # Example
///
/// ```
/// use alphonse::Runtime;
/// let rt = Runtime::new();
/// let base = rt.var(100i64);
/// let scaled = rt.memo("scaled", move |rt, k: &i64| base.get(rt) * k);
/// assert_eq!(scaled.call(&rt, 3), 300);
/// assert_eq!(scaled.call(&rt, 3), 300); // cache hit
/// base.set(&rt, 1);
/// assert_eq!(scaled.call(&rt, 3), 3); // recomputed
/// ```
pub struct Memo<A, R> {
    inner: Arc<MemoInner<A, R>>,
}

impl<A, R> Clone for Memo<A, R> {
    fn clone(&self) -> Self {
        Memo {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<A, R> fmt::Debug for Memo<A, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Memo")
            .field("name", &self.inner.name)
            .field("strategy", &self.inner.strategy)
            .field("instances", &self.inner.table().map.len())
            .finish()
    }
}

impl Runtime {
    /// Defines a demand-evaluated incremental procedure — the library form
    /// of the `(*CACHED*)` / `(*MAINTAINED*)` pragmas.
    ///
    /// `name` is used in diagnostics. The body must satisfy the paper's DET
    /// restriction: same arguments and same tracked reads must yield the
    /// same result.
    pub fn memo<A: MemoArgs, R: MemoResult>(
        &self,
        name: &str,
        f: impl Fn(&Runtime, &A) -> R + Send + Sync + 'static,
    ) -> Memo<A, R> {
        self.memo_with(name, Strategy::Demand, f)
    }

    /// Defines an incremental procedure with an explicit evaluation
    /// [`Strategy`].
    pub fn memo_with<A: MemoArgs, R: MemoResult>(
        &self,
        name: &str,
        strategy: Strategy,
        f: impl Fn(&Runtime, &A) -> R + Send + Sync + 'static,
    ) -> Memo<A, R> {
        self.new_memo(name, strategy, None, Box::new(move |rt, _, a| f(rt, a)))
    }

    /// Defines an incremental procedure whose cache keeps at most
    /// `capacity` instance values live, with least-recently-used
    /// replacement — the paper's cache-size / replacement-algorithm pragma
    /// arguments (Section 3.3).
    ///
    /// Eviction only drops the cached *value* (forcing recomputation on the
    /// next call); the instance's dependency edges remain so that change
    /// propagation through it stays sound.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn memo_bounded<A: MemoArgs, R: MemoResult>(
        &self,
        name: &str,
        strategy: Strategy,
        capacity: usize,
        f: impl Fn(&Runtime, &A) -> R + Send + Sync + 'static,
    ) -> Memo<A, R> {
        assert!(capacity > 0, "memo cache capacity must be positive");
        self.new_memo(
            name,
            strategy,
            Some(capacity),
            Box::new(move |rt, _, a| f(rt, a)),
        )
    }

    /// Defines a demand-evaluated incremental procedure whose body can call
    /// itself — the shape of every recursive maintained method in the paper
    /// (`height`, `balance`, attribute equations).
    ///
    /// The body receives its own [`Memo`] handle as second parameter.
    ///
    /// # Example
    ///
    /// ```
    /// use alphonse::Runtime;
    /// let rt = Runtime::new();
    /// let fib = rt.memo_recursive("fib", |rt, fib, &n: &u64| -> u64 {
    ///     if n < 2 { n } else { fib.call(rt, n - 1) + fib.call(rt, n - 2) }
    /// });
    /// assert_eq!(fib.call(&rt, 20), 6765);
    /// ```
    pub fn memo_recursive<A: MemoArgs, R: MemoResult>(
        &self,
        name: &str,
        f: impl Fn(&Runtime, &Memo<A, R>, &A) -> R + Send + Sync + 'static,
    ) -> Memo<A, R> {
        self.memo_recursive_with(name, Strategy::Demand, f)
    }

    /// [`Runtime::memo_recursive`] with an explicit evaluation strategy.
    pub fn memo_recursive_with<A: MemoArgs, R: MemoResult>(
        &self,
        name: &str,
        strategy: Strategy,
        f: impl Fn(&Runtime, &Memo<A, R>, &A) -> R + Send + Sync + 'static,
    ) -> Memo<A, R> {
        self.new_memo(name, strategy, None, Box::new(f))
    }

    fn new_memo<A: MemoArgs, R: MemoResult>(
        &self,
        name: &str,
        strategy: Strategy,
        capacity: Option<usize>,
        f: Body<A, R>,
    ) -> Memo<A, R> {
        let _mem = mem::scope(mem::Tag::Memo);
        Memo {
            inner: Arc::new(MemoInner {
                name: Arc::from(name),
                strategy,
                rt_id: self.id,
                capacity,
                f,
                table: Mutex::new(Table::default()),
                single: OnceLock::new(),
                evictions: AtomicU64::new(0),
                height_hint: AtomicU32::new(0),
            }),
        }
    }
}

/// What [`Memo::settle`] found in the argument table.
enum Settled<A> {
    /// An existing instance. The argument vector comes back to the caller,
    /// which runs the body on it directly if the cache misses.
    Existing(NodeId, A),
    /// A just-created instance whose first execution is already booked:
    /// the executor to run and the execution's generation.
    Fresh(NodeId, Executor, u64),
}

impl<A: MemoArgs, R: MemoResult> Memo<A, R> {
    /// The diagnostic name given at definition time.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The evaluation strategy of this procedure.
    pub fn strategy(&self) -> Strategy {
        self.inner.strategy
    }

    /// Number of distinct argument vectors instantiated so far.
    pub fn instance_count(&self) -> usize {
        self.inner.table().map.len()
    }

    /// Calls the procedure — the paper's instrumented `call` operation
    /// (Algorithm 5):
    ///
    /// 1. look the argument vector up in the argument table, creating the
    ///    instance node on a miss;
    /// 2. on a hit, run pending change propagation first (with partitioning,
    ///    only this instance's partition);
    /// 3. record the caller's dependence on this instance;
    /// 4. return the cached value if the instance is consistent, otherwise
    ///    drop its stale dependencies and re-execute the body.
    ///
    /// # Panics
    ///
    /// Panics if `rt` is not the runtime the memo was defined in, or if the
    /// computation turns out to be cyclic (paper restriction DET).
    pub fn call(&self, rt: &Runtime, args: A) -> R {
        self.call_with(rt, args, R::clone)
    }

    /// Calls the procedure and hands the result to `f` by reference instead
    /// of cloning it out of the cache — the zero-allocation form of
    /// [`Memo::call`] for results that do not need to escape.
    ///
    /// Dependence recording, cache consultation and re-execution are
    /// identical to [`Memo::call`]; only the final hand-off differs. On a
    /// cache hit no clone of `R` happens at all. The runtime is internally
    /// locked while `f` runs: the closure must not re-enter runtime
    /// operations, or the fail-stop re-entrancy check panics.
    ///
    /// # Example
    ///
    /// ```
    /// use alphonse::Runtime;
    /// let rt = Runtime::new();
    /// let words = rt.var(vec!["a".to_string(), "bb".to_string()]);
    /// let joined = rt.memo("joined", move |rt, &(): &()| {
    ///     words.with(rt, |w| w.join("+"))
    /// });
    /// let len = joined.call_with(&rt, (), |s| s.len());
    /// assert_eq!(len, 4);
    /// ```
    ///
    /// # Panics
    ///
    /// As for [`Memo::call`].
    pub fn call_with<O>(&self, rt: &Runtime, args: A, f: impl FnOnce(&R) -> O) -> O {
        let read = |v: &dyn Value| f(downcast_ref::<R>(v, self.name()));
        // Note: the paper's Algorithm 5 records the caller's dependence edge
        // before checking consistency. We record it after the callee has
        // settled (cache hit or completed re-execution) instead — the
        // resulting edge set is identical, but re-entrant patterns like the
        // AVL balance method (Section 7.3) would otherwise transiently pair
        // a stale caller→callee edge with the fresh callee→caller one and
        // trip cycle detection.
        match self.settle(rt, args) {
            Settled::Fresh(node, executor, my_gen) => {
                let value = executor(rt);
                rt.finish_exec_recording(node, my_gen, value, read)
            }
            Settled::Existing(node, args) => match rt.precall_cached(node, read) {
                Ok(out) => out,
                Err((read, my_gen)) => {
                    let value = self.run(rt, &args);
                    rt.finish_exec_recording(node, my_gen, value, read)
                }
            },
        }
    }

    /// Runs the body on `args` — the user body untagged (its allocations
    /// are workload memory) — and bills the result box to the value slab.
    fn run(&self, rt: &Runtime, args: &A) -> Box<dyn Value> {
        let result = (self.inner.f)(rt, self, args);
        mem::with(mem::Tag::ValueSlab, || Box::new(result) as Box<dyn Value>)
    }

    /// Steps 1–2 of Algorithm 5: argument-table lookup (instantiating on a
    /// miss). A fresh instance cannot be a cache hit and has no pending
    /// changes to settle, so [`Runtime::alloc_comp_begun`] books its first
    /// execution inside the allocation's own lock. The call/probe counters
    /// are tallied inside the allocation / pre-call paths, sharing their
    /// existing lock acquisitions.
    fn settle(&self, rt: &Runtime, args: A) -> Settled<A> {
        assert_eq!(
            self.inner.rt_id, rt.id,
            "Memo {:?} used with a different Runtime than it was defined in",
            self.inner.name
        );
        // Single-instance fast path: once the sole instance of a
        // zero-sized argument type is published, the whole settle step is
        // one atomic load (LRU stamps are pointless with one entry).
        if std::mem::size_of::<A>() == 0 {
            if let Some(&node) = self.inner.single.get() {
                return Settled::Existing(node, args);
            }
        }
        let settled = {
            let mut table = self.inner.table();
            table.clock += 1;
            let stamp = table.clock;
            match table.map.get_mut(&args) {
                Some(entry) => {
                    entry.last_use = stamp;
                    Settled::Existing(entry.node, args)
                }
                None => {
                    let _mem = mem::scope(mem::Tag::Memo);
                    let me = self.clone();
                    let a = args.clone();
                    let executor: Executor = Arc::new(move |rt| me.run(rt, &a));
                    let (n, my_gen) = rt.alloc_comp_begun(
                        Arc::clone(&self.inner.name),
                        self.inner.strategy,
                        Arc::clone(&executor),
                        self.inner.height_hint.load(Ordering::Relaxed),
                    );
                    table.map.insert(
                        args,
                        Entry {
                            node: n,
                            last_use: stamp,
                        },
                    );
                    Settled::Fresh(n, executor, my_gen)
                }
            }
        };
        if let Settled::Fresh(node, ..) = settled {
            self.enforce_capacity(rt, node);
            if std::mem::size_of::<A>() == 0 {
                let _ = self.inner.single.set(node);
            }
        }
        settled
    }

    /// The dependency-graph node for a given argument vector, if that
    /// instance exists.
    pub fn instance_node(&self, args: &A) -> Option<NodeId> {
        self.inner.table().map.get(args).map(|e| e.node)
    }

    /// Cache capacity, if bounded.
    pub fn capacity(&self) -> Option<usize> {
        self.inner.capacity
    }

    /// Number of values dropped by the replacement policy so far.
    pub fn evictions(&self) -> u64 {
        self.inner.evictions.load(Ordering::Relaxed)
    }

    /// Seeds the minimum height of instance nodes created *after* this call
    /// from a static stratification (the compiler's SCC condensation of the
    /// abstract dependency graph). A node born at its final height never
    /// triggers the online height-raise cascade when its read edges are
    /// recorded, so a good hint turns O(edges) height adjustments into
    /// none. Overestimates are harmless: heights only order propagation,
    /// and the wave queue tolerates stale priorities. Zero clears the hint.
    /// Already-created instances are unaffected.
    pub fn set_height_hint(&self, h: u32) {
        self.inner.height_hint.store(h, Ordering::Relaxed);
    }

    /// The current static height hint (zero = none).
    pub fn height_hint(&self) -> u32 {
        self.inner.height_hint.load(Ordering::Relaxed)
    }

    /// Drops least-recently-used cached values until at most `capacity`
    /// remain live. Instances that are currently executing are never
    /// evicted. Dependency edges are kept — eviction forgets results, not
    /// dependence (otherwise propagation through the instance would lose
    /// soundness).
    fn enforce_capacity(&self, rt: &Runtime, just_created: NodeId) {
        let Some(capacity) = self.inner.capacity else {
            return;
        };
        let table = self.inner.table();
        let mut live: Vec<(u64, NodeId)> = table
            .map
            .values()
            .filter(|e| {
                e.node != just_created && rt.node_has_value(e.node) && !rt.node_on_stack(e.node)
            })
            .map(|e| (e.last_use, e.node))
            .collect();
        drop(table);
        // +1 for the instance about to be (or just) computed.
        let over = (live.len() + 1).saturating_sub(capacity);
        if over == 0 {
            return;
        }
        live.sort_unstable();
        for &(_, node) in live.iter().take(over) {
            rt.evict_value(node);
            self.inner.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drops the cached value for `args`, forcing recomputation on the
    /// next call, exactly like LRU eviction (dependency edges are kept, so
    /// change propagation through the instance stays sound). Returns `true`
    /// if a live value was dropped. Instances that are currently executing
    /// are left untouched.
    ///
    /// Hosts use this to un-cache results that are known to be invalid for
    /// reasons the runtime cannot see — e.g. a language interpreter whose
    /// procedure body raised an error after the memo committed a sentinel.
    pub fn forget(&self, rt: &Runtime, args: &A) -> bool {
        match self.instance_node(args) {
            Some(n) if rt.node_has_value(n) && !rt.node_on_stack(n) => {
                rt.evict_value(n);
                true
            }
            _ => false,
        }
    }

    /// Explains why the instance for `args` has its current value by
    /// listing its recorded dependencies — the "sophisticated debugging"
    /// use of the dependency information (paper Section 1). Returns `None`
    /// if the instance was never called.
    ///
    /// # Example
    ///
    /// ```
    /// use alphonse::Runtime;
    /// let rt = Runtime::new();
    /// let base = rt.var(2i64);
    /// let m = rt.memo("double", move |rt, &(): &()| base.get(rt) * 2);
    /// m.call(&rt, ());
    /// let why = m.explain(&rt, &()).unwrap();
    /// assert!(why.contains("instance of double"));
    /// assert!(why.contains("depends on"));
    /// ```
    pub fn explain(&self, rt: &Runtime, args: &A) -> Option<String> {
        self.instance_node(args).map(|n| rt.explain(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn caches_per_argument_vector() {
        let rt = Runtime::new();
        let runs = Arc::new(AtomicU32::new(0));
        let r2 = Arc::clone(&runs);
        let double = rt.memo("double", move |_rt, x: &i64| {
            r2.fetch_add(1, Ordering::Relaxed);
            x * 2
        });
        assert_eq!(double.call(&rt, 4), 8);
        assert_eq!(double.call(&rt, 4), 8);
        assert_eq!(double.call(&rt, 5), 10);
        assert_eq!(
            runs.load(Ordering::Relaxed),
            2,
            "one execution per distinct argument"
        );
        assert_eq!(double.instance_count(), 2);
    }

    #[test]
    fn invalidates_on_tracked_read_change() {
        let rt = Runtime::new();
        let base = rt.var(1i64);
        let plus = rt.memo("plus", move |rt, x: &i64| base.get(rt) + x);
        assert_eq!(plus.call(&rt, 10), 11);
        base.set(&rt, 5);
        assert_eq!(plus.call(&rt, 10), 15);
    }

    #[test]
    fn unchanged_write_is_cutoff() {
        let rt = Runtime::new();
        let base = rt.var(1i64);
        let runs = Arc::new(AtomicU32::new(0));
        let r2 = Arc::clone(&runs);
        let probe = rt.memo("probe", move |rt, &(): &()| {
            r2.fetch_add(1, Ordering::Relaxed);
            base.get(rt)
        });
        probe.call(&rt, ());
        base.set(&rt, 1); // same value: no dirtying
        probe.call(&rt, ());
        assert_eq!(runs.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn recursive_memo_works() {
        let rt = Runtime::new();
        let fact = rt.memo_recursive("fact", |rt, me, &n: &u64| -> u64 {
            if n == 0 {
                1
            } else {
                n * me.call(rt, n - 1)
            }
        });
        assert_eq!(fact.call(&rt, 10), 3_628_800);
        // All 11 instances cached.
        assert_eq!(fact.instance_count(), 11);
        let before = rt.stats();
        assert_eq!(fact.call(&rt, 10), 3_628_800);
        let d = rt.stats().delta_since(&before);
        assert_eq!(d.executions, 0, "fully cached");
    }

    #[test]
    fn memo_reads_memo_dependencies() {
        let rt = Runtime::new();
        let a = rt.var(1i64);
        let mid = rt.memo("mid", move |rt, &(): &()| a.get(rt) * 10);
        let mid2 = mid.clone();
        let top = rt.memo("top", move |rt, &(): &()| mid2.call(rt, ()) + 1);
        assert_eq!(top.call(&rt, ()), 11);
        a.set(&rt, 2);
        assert_eq!(top.call(&rt, ()), 21);
    }

    #[test]
    #[should_panic(expected = "different Runtime")]
    fn cross_runtime_memo_panics() {
        let a = Runtime::new();
        let b = Runtime::new();
        let m = a.memo("m", |_rt, x: &i64| *x);
        let _ = m.call(&b, 1);
    }

    #[test]
    fn debug_shows_name() {
        let rt = Runtime::new();
        let m = rt.memo("shown", |_rt, x: &i64| *x);
        assert!(format!("{m:?}").contains("shown"));
    }

    #[test]
    fn strategy_accessors() {
        let rt = Runtime::new();
        let d = rt.memo("d", |_rt, x: &i64| *x);
        let e = rt.memo_with("e", Strategy::Eager, |_rt, x: &i64| *x);
        assert_eq!(d.strategy(), Strategy::Demand);
        assert_eq!(e.strategy(), Strategy::Eager);
        assert_eq!(d.name(), "d");
    }

    /// `(calls, memo_probes, cache_hits, executions)` charged by `f`.
    fn call_counts(rt: &Runtime, f: impl FnOnce()) -> (u64, u64, u64, u64) {
        let before = rt.stats();
        f();
        let d = rt.stats().delta_since(&before);
        (d.calls, d.memo_probes, d.cache_hits, d.executions)
    }

    #[test]
    fn call_path_counts_are_exact() {
        let rt = Runtime::new();
        let base = rt.var(1i64);
        let plus = rt.memo("plus", move |rt, x: &i64| base.get(rt) + x);
        let fresh = call_counts(&rt, || assert_eq!(plus.call(&rt, 10), 11));
        assert_eq!(fresh, (1, 1, 0, 1), "fresh instance");
        let hit = call_counts(&rt, || assert_eq!(plus.call(&rt, 10), 11));
        assert_eq!(hit, (1, 1, 1, 0), "cache hit");
        base.set(&rt, 2);
        let miss = call_counts(&rt, || assert_eq!(plus.call(&rt, 10), 12));
        assert_eq!(miss, (1, 1, 0, 1), "miss on an existing instance");
        // A nested call charges the inner instance on its own.
        let plus2 = plus.clone();
        let outer = rt.memo("outer", move |rt, x: &i64| plus2.call(rt, *x) * 2);
        let nested = call_counts(&rt, || assert_eq!(outer.call(&rt, 10), 24));
        assert_eq!(nested, (2, 2, 1, 1), "fresh outer over a cached inner");
    }

    #[test]
    fn evicted_bounded_instance_counts_as_a_miss() {
        let rt = Runtime::new();
        let sq = rt.memo_bounded("sq", Strategy::Demand, 1, |_rt, x: &i64| x * x);
        assert_eq!(
            call_counts(&rt, || assert_eq!(sq.call(&rt, 2), 4)),
            (1, 1, 0, 1)
        );
        assert_eq!(
            call_counts(&rt, || assert_eq!(sq.call(&rt, 3), 9)),
            (1, 1, 0, 1)
        );
        assert_eq!(sq.evictions(), 1, "the second instance evicted the first");
        let evicted = call_counts(&rt, || assert_eq!(sq.call(&rt, 2), 4));
        assert_eq!(evicted, (1, 1, 0, 1), "evicted instance re-executes");
        assert_eq!(sq.instance_count(), 2, "eviction keeps the instance");
    }

    #[test]
    #[should_panic(
        expected = "incremental procedure selfish recursively depends on its own first \
                    execution (violates paper restriction DET)"
    )]
    fn self_recursive_first_execution_panics() {
        let rt = Runtime::new();
        let m = rt.memo_recursive("selfish", |rt, me, &n: &u64| -> u64 { me.call(rt, n) });
        let _ = m.call(&rt, 1);
    }

    #[test]
    fn eager_recursive_memo_outlives_its_handle() {
        let rt = Runtime::new();
        let v = rt.var(1u64);
        let runs = Arc::new(AtomicU32::new(0));
        let r2 = Arc::clone(&runs);
        let chain = rt.memo_recursive_with("chain", Strategy::Eager, move |rt, me, &n: &u64| {
            r2.fetch_add(1, Ordering::Relaxed);
            if n == 0 {
                v.get(rt)
            } else {
                me.call(rt, n - 1) + 1
            }
        });
        assert_eq!(chain.call(&rt, 2), 3);
        drop(chain);
        runs.store(0, Ordering::Relaxed);
        v.set(&rt, 10);
        rt.propagate();
        assert_eq!(
            runs.load(Ordering::Relaxed),
            3,
            "every instance re-executes eagerly after the handle is gone"
        );
    }

    #[test]
    fn dropping_the_runtime_frees_captured_state() {
        let sentinel = Arc::new(());
        let weak = Arc::downgrade(&sentinel);
        {
            let rt = Runtime::new();
            let (s1, s2) = (Arc::clone(&sentinel), sentinel);
            let rec = rt.memo_recursive("rec", move |rt, me, &n: &u64| {
                let _ = &s1;
                if n == 0 {
                    0
                } else {
                    me.call(rt, n - 1) + 1
                }
            });
            let plain = rt.memo_with("plain", Strategy::Eager, move |_rt, x: &u64| {
                let _ = &s2;
                *x
            });
            assert_eq!(rec.call(&rt, 3), 3);
            assert_eq!(plain.call(&rt, 4), 4);
            assert!(weak.upgrade().is_some());
        }
        assert!(
            weak.upgrade().is_none(),
            "runtime and handles dropped: the bodies' captures must be freed"
        );
    }
}
