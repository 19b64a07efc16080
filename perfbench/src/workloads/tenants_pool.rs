//! `tenants_pool`: tenant sessions served by a `SessionPool`.
//!
//! Why: the only workload that crosses threads (submit, shard sojourn,
//! query round trip); per-session failure handling in the pool lands here.
//!
//! Each session is a reduction of 64 tracked leaves through 8 eager group
//! sums into one eager total. The pool has one shard per available core
//! but one (at least one), so the client thread and the shards never
//! outnumber the cores. Each update submits one batch of leaf writes to
//! every tenant, then queries every tenant's total. The reference replays
//! the writes on plain leaf vectors and sums them.

use crate::harness::{Checked, Counts, Scale, Workload};
use crate::ledger::Ledger;
use crate::rng::Rng;
use alphonse::pool::SessionPool;
use alphonse::{Memo, Runtime, Strategy, Var};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

const LEAVES: usize = 64;
const GROUP: usize = 8;
/// Leaf writes per tenant per update.
const WRITES: usize = 16;
/// Leaf values are drawn from `0..VALUES`.
const VALUES: u64 = 1024;

struct Session {
    rt: Runtime,
    leaves: Vec<Var<i64>>,
    total: Memo<(), i64>,
}

fn session(values: &[i64]) -> Session {
    let rt = Runtime::new();
    let leaves: Vec<Var<i64>> = values.iter().map(|&v| rt.var(v)).collect();
    let groups: Vec<Memo<(), i64>> = leaves
        .chunks(GROUP)
        .map(|chunk| {
            let chunk = chunk.to_vec();
            rt.memo_with("group", Strategy::Eager, move |rt, &(): &()| {
                chunk.iter().map(|v| v.get(rt)).sum::<i64>()
            })
        })
        .collect();
    let total = rt.memo_with("total", Strategy::Eager, move |rt, &(): &()| {
        groups.iter().map(|g| g.call(rt, ())).sum::<i64>()
    });
    Session { rt, leaves, total }
}

/// Shards for this host: the cores but one, at least one.
fn shards() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .saturating_sub(1)
        .max(1)
}

/// Generated inputs of one round: every tenant's leaf values.
#[derive(Debug)]
pub struct Input {
    rng: Rng,
    tenants: Vec<Vec<i64>>,
}

/// One update: per tenant, its `(leaf, value)` writes (shared with the
/// shard, so the reference can replay them).
pub type Edit = Vec<Arc<Vec<(usize, i64)>>>;

/// The running workload.
pub struct TenantsPool {
    pool: SessionPool<Session>,
    rng: Rng,
    leaves: Vec<Vec<i64>>,
    first: Vec<i64>,
}

impl TenantsPool {
    fn check_totals(&self, got: &[i64]) -> Result<(), String> {
        let want: Vec<i64> = self.leaves.iter().map(|l| l.iter().sum()).collect();
        if got == want.as_slice() {
            Ok(())
        } else {
            Err(format!("totals {got:?}, reference {want:?}"))
        }
    }

    fn each_session<R: Send + 'static>(&self, f: fn(&mut Session) -> R) -> Vec<R> {
        (0..self.leaves.len() as u64)
            .map(|t| self.pool.query(t, f))
            .collect()
    }
}

impl Workload for TenantsPool {
    type Input = Input;
    type Edit = Edit;
    type Answer = Vec<i64>;

    fn updates_per_round(scale: Scale) -> usize {
        match scale {
            Scale::Full => 1024,
            Scale::Small => 64,
        }
    }

    fn generate(mut rng: Rng, scale: Scale) -> Input {
        let tenants = match scale {
            Scale::Full => 32,
            Scale::Small => 4,
        };
        let tenants = (0..tenants)
            .map(|_| (0..LEAVES).map(|_| rng.below(VALUES) as i64).collect())
            .collect();
        Input { rng, tenants }
    }

    fn digest(input: &Input) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        input.tenants.hash(&mut h);
        h.finish()
    }

    fn setup(input: Input, _ledger: &mut Ledger) -> TenantsPool {
        let pool = SessionPool::new(shards());
        for (t, values) in input.tenants.iter().enumerate() {
            pool.insert(t as u64, session(values));
        }
        let mut w = TenantsPool {
            pool,
            rng: input.rng,
            leaves: input.tenants,
            first: Vec::new(),
        };
        w.first = w.each_session(|s| s.total.call(&s.rt, ()));
        w
    }

    fn check_setup(&mut self) -> Checked {
        Checked::op(self.check_totals(&self.first))
    }

    fn next_edit(&mut self, _i: usize) -> Edit {
        let rng = &mut self.rng;
        (0..self.leaves.len())
            .map(|_| {
                Arc::new(
                    (0..WRITES)
                        .map(|_| (rng.index(LEAVES), rng.below(VALUES) as i64))
                        .collect(),
                )
            })
            .collect()
    }

    fn apply(&mut self, edit: &mut Edit, ledger: &mut Ledger) -> Vec<i64> {
        let pool = &self.pool;
        for (t, writes) in edit.iter().enumerate() {
            let writes = Arc::clone(writes);
            ledger.span("pool.submit", || {
                pool.submit(t as u64, move |s: &mut Session| {
                    let leaves = &s.leaves;
                    s.rt.batch(|tx| {
                        for &(i, v) in writes.iter() {
                            leaves[i].set_in(tx, v);
                        }
                    });
                    s.rt.propagate();
                });
            });
        }
        let mut totals = Vec::with_capacity(edit.len());
        for t in 0..edit.len() as u64 {
            totals.push(ledger.span("pool.query", || {
                pool.query(t, |s: &mut Session| s.total.call(&s.rt, ()))
            }));
        }
        totals
    }

    fn verify(&mut self, edit: Edit, totals: Vec<i64>) -> Checked {
        for (leaves, writes) in self.leaves.iter_mut().zip(&edit) {
            for &(i, v) in writes.iter() {
                leaves[i] = v;
            }
        }
        Checked::op(self.check_totals(&totals))
    }

    fn counts(&self) -> Counts {
        self.each_session(|s| Counts::from_stats(&s.rt.stats()))
            .iter()
            .fold(Counts::default(), |a, c| a.plus(c))
    }

    fn graph(&self) -> (u64, u64) {
        self.each_session(|s| (s.rt.node_count() as u64, s.rt.edge_count() as u64))
            .into_iter()
            .fold((0, 0), |a, (n, e)| (a.0 + n, a.1 + e))
    }

    fn round_metrics(&self) -> Vec<(&'static str, f64)> {
        let sojourn = self.pool.pool_metrics().submit_sojourn_ns;
        vec![("pool.sojourn_p50_us", sojourn.percentile(0.5) as f64 / 1e3)]
    }
}
