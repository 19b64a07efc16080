//! `avl_lang`: the paper's Algorithm 11 AVL tree in Alphonse-L, run by the
//! instrumented interpreter (`Mode::Alphonse`).
//!
//! Why: the read-heavy workload. Interpreter dispatch, instrumented
//! `access`/`call` and memo cache hits dominate, so an access-path or VM
//! change shows here and a write-path or scheduling change should not.
//!
//! Setup compiles `programs/avl.alf`, calls `Init`, then makes online
//! `Insert` + `Rebalance` calls on random keys. Each update is one `Insert`
//! followed by `Contains` calls (each rebalances first) on keys that are
//! half present, half uniformly random. The reference is a `BTreeSet`,
//! plus `CheckRoot` and `Size` at the end of every round.

use crate::harness::{Checked, Counts, Scale, Workload};
use crate::ledger::Ledger;
use crate::rng::Rng;
use alphonse_lang::{compile, Interp, Mode, Result as LangResult, Val};
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

/// The program under test: the AVL tree of the paper's Algorithm 11.
const PROGRAM: &str = include_str!("../../programs/avl.alf");
/// `Contains` calls per update.
const QUERIES: usize = 8;

/// Generated inputs of one round.
#[derive(Debug)]
pub struct Input {
    rng: Rng,
    keyspace: u64,
    keys: Vec<i64>,
}

/// One update: a key to insert, then keys to look up.
#[derive(Debug)]
pub struct Edit {
    insert: i64,
    queries: [i64; QUERIES],
}

/// What one update returned.
#[derive(Debug)]
pub struct Answer {
    insert: LangResult<Val>,
    found: Vec<LangResult<Val>>,
}

/// The running workload.
pub struct AvlLang {
    interp: Interp,
    rng: Rng,
    keyspace: u64,
    set: BTreeSet<i64>,
    /// The keys of `set`, for drawing present keys.
    present: Vec<i64>,
}

impl AvlLang {
    fn insert_reference(&mut self, k: i64) {
        if self.set.insert(k) {
            self.present.push(k);
        }
    }

    fn check_shape(&self) -> Checked {
        let mut c = Checked::default();
        c.record(match self.interp.call("CheckRoot", vec![]) {
            Ok(Val::Bool(true)) => Ok(()),
            other => Err(format!("CheckRoot returned {other:?}")),
        });
        let want = Val::Int(self.set.len() as i64);
        c.record(match self.interp.call("Size", vec![]) {
            Ok(v) if v == want => Ok(()),
            other => Err(format!("Size returned {other:?}, reference {want:?}")),
        });
        c
    }
}

impl Workload for AvlLang {
    type Input = Input;
    type Edit = Edit;
    type Answer = Answer;

    fn updates_per_round(scale: Scale) -> usize {
        match scale {
            Scale::Full => 2048,
            Scale::Small => 64,
        }
    }

    fn generate(mut rng: Rng, scale: Scale) -> Input {
        let (initial, keyspace) = match scale {
            Scale::Full => (8192, 1 << 16),
            Scale::Small => (256, 1 << 11),
        };
        let keys = (0..initial).map(|_| rng.below(keyspace) as i64).collect();
        Input {
            rng,
            keyspace,
            keys,
        }
    }

    fn digest(input: &Input) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        input.keys.hash(&mut h);
        h.finish()
    }

    fn setup(input: Input, ledger: &mut Ledger) -> AvlLang {
        let program = ledger
            .span("lang.compile", || compile(PROGRAM))
            .expect("the AVL program compiles");
        let interp = Interp::new(program, Mode::Alphonse).expect("globals initialize");
        interp.set_fuel(u64::MAX / 2);
        interp.call("Init", vec![]).expect("Init runs");
        for &k in &input.keys {
            interp
                .call("Insert", vec![Val::Int(k)])
                .expect("Insert runs");
            interp.call("Rebalance", vec![]).expect("Rebalance runs");
        }
        let mut w = AvlLang {
            interp,
            rng: input.rng,
            keyspace: input.keyspace,
            set: BTreeSet::new(),
            present: Vec::new(),
        };
        for k in input.keys {
            w.insert_reference(k);
        }
        w
    }

    fn check_setup(&mut self) -> Checked {
        self.check_shape()
    }

    fn next_edit(&mut self, _i: usize) -> Edit {
        let insert = self.rng.below(self.keyspace) as i64;
        let mut queries = [0; QUERIES];
        for q in &mut queries {
            *q = if self.rng.one_in(2) {
                self.present[self.rng.index(self.present.len())]
            } else {
                self.rng.below(self.keyspace) as i64
            };
        }
        Edit { insert, queries }
    }

    fn apply(&mut self, edit: &mut Edit, ledger: &mut Ledger) -> Answer {
        let interp = &self.interp;
        let insert = ledger.span("lang.insert", || {
            interp.call("Insert", vec![Val::Int(edit.insert)])
        });
        let mut found = Vec::with_capacity(QUERIES);
        for &q in &edit.queries {
            found.push(ledger.span("lang.contains", || {
                interp.call("Contains", vec![Val::Int(q)])
            }));
        }
        Answer { insert, found }
    }

    fn verify(&mut self, edit: Edit, answer: Answer) -> Checked {
        if let Err(e) = answer.insert {
            return Checked::op(Err(format!("Insert({}) failed: {e}", edit.insert)));
        }
        self.insert_reference(edit.insert);
        for (q, got) in edit.queries.iter().zip(answer.found) {
            let want = Val::Bool(self.set.contains(q));
            match got {
                Ok(v) if v == want => {}
                other => {
                    return Checked::op(Err(format!(
                        "Contains({q}) returned {other:?}, reference {want:?}"
                    )))
                }
            }
        }
        Checked::op(Ok(()))
    }

    fn finish(&mut self) -> Checked {
        self.check_shape()
    }

    fn counts(&self) -> Counts {
        let rt = self.interp.runtime().expect("Alphonse mode has a runtime");
        Counts::from_stats(&rt.stats()).with("lang_steps", self.interp.steps())
    }

    fn graph(&self) -> (u64, u64) {
        let rt = self.interp.runtime().expect("Alphonse mode has a runtime");
        (rt.node_count() as u64, rt.edge_count() as u64)
    }
}
