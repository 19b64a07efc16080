//! `let_eager`: the paper's let-expression grammar (Algorithms 6-9) on a
//! random let-program, attributed with the eager strategy.
//!
//! Why: all re-execution happens inside `propagate()`, in height order with
//! quiescence cutoff on environment values; no sheet or lang code runs.
//! Setup is bound by runtime allocation, and the `let` scoping gives a
//! heavy, real tail.
//!
//! Half the inner nodes of subtrees up to `LET_MAX` nodes are `let`s over a
//! fixed set of names (so about one node in four), and every `Id` leaf
//! names a binding in scope. Each update edits four `Int` terminals through
//! `AgTree::set_terminal`, or, one update in sixteen, replaces an `Int` leaf
//! by a fresh two-leaf `Plus` through `AgTree::set_child`; then
//! `Runtime::propagate` and a query of the root `value`.
//!
//! The reference is `LetExpr::eval_oracle` on a mirrored expression. It
//! costs tens of milliseconds at full size, so it runs on a seeded sample of
//! updates and on every round's final state.

use crate::harness::{Checked, Counts, Scale, Workload};
use crate::ledger::Ledger;
use crate::rng::Rng;
use alphonse::{Runtime, Strategy};
use alphonse_agkit::{AgEvaluator, AgNodeId, AgTree, AttrVal, LetExpr, LetLang};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// One update in this many is structural.
const GRAFT_EVERY: usize = 16;
/// Terminal edits per non-structural update.
const TERMINAL_EDITS: usize = 4;
/// The reference checks one update in this many (plus each round's end).
const CHECK_ONE_IN: u64 = 512;
/// `Int` literals are drawn from `0..VALUES`.
const VALUES: u64 = 100;
/// Largest subtree a `let` may head. A changed binding re-attributes the
/// environment of its whole body, so unbounded bodies would make a single
/// edit near the root re-run half the program.
const LET_MAX: u64 = 255;

/// Generated inputs of one round.
#[derive(Debug)]
pub struct Input {
    rng: Rng,
    expr: LetExpr,
}

/// An `Int` leaf of the program and where it sits.
#[derive(Debug, Clone)]
struct Leaf {
    node: AgNodeId,
    parent: AgNodeId,
    index: usize,
    /// Child indices from the expression root.
    path: Vec<u8>,
}

/// One update.
#[derive(Debug)]
pub enum Edit {
    /// New values for `Int` leaves (indices into the leaf table).
    Terminals(Vec<(usize, i64)>),
    /// Replace a leaf by `Plus(Int a, Int b)`.
    Graft { leaf: usize, a: i64, b: i64 },
}

/// What one update returned.
#[derive(Debug)]
pub struct Answer {
    value: AttrVal,
    /// The graft's new nodes: left leaf, right leaf, `Plus`.
    grafted: Option<(AgNodeId, AgNodeId, AgNodeId)>,
}

/// The running workload.
pub struct LetEager {
    rt: Runtime,
    tree: Arc<AgTree>,
    lang: LetLang,
    eval: AgEvaluator,
    root: AgNodeId,
    mirror: LetExpr,
    leaves: Vec<Leaf>,
    rng: Rng,
    check_rng: Rng,
    first: AttrVal,
}

/// A random expression of exactly `size` nodes (`size` odd).
fn gen(rng: &mut Rng, size: u64, names: u64, scope: &mut Vec<u64>) -> LetExpr {
    if size == 1 {
        return if !scope.is_empty() && rng.one_in(2) {
            LetExpr::Id(format!("v{}", scope[rng.index(scope.len())]))
        } else {
            LetExpr::Int(rng.below(VALUES) as i64)
        };
    }
    let left = 2 * rng.below((size - 1) / 2) + 1;
    let right = size - 1 - left;
    if size <= LET_MAX && rng.one_in(2) {
        let name = rng.below(names);
        let bound = gen(rng, left, names, scope);
        scope.push(name);
        let body = gen(rng, right, names, scope);
        scope.pop();
        LetExpr::Let(format!("v{name}"), Box::new(bound), Box::new(body))
    } else {
        let a = gen(rng, left, names, scope);
        let b = gen(rng, right, names, scope);
        LetExpr::Plus(Box::new(a), Box::new(b))
    }
}

fn children(e: &LetExpr) -> Option<(&LetExpr, &LetExpr)> {
    match e {
        LetExpr::Plus(a, b) | LetExpr::Let(_, a, b) => Some((a, b)),
        LetExpr::Int(_) | LetExpr::Id(_) => None,
    }
}

fn at_path<'a>(mut e: &'a mut LetExpr, path: &[u8]) -> &'a mut LetExpr {
    for &i in path {
        e = match e {
            LetExpr::Plus(a, b) | LetExpr::Let(_, a, b) => {
                if i == 0 {
                    a
                } else {
                    b
                }
            }
            LetExpr::Int(_) | LetExpr::Id(_) => unreachable!("paths end at leaves"),
        };
    }
    e
}

impl LetEager {
    /// Indexes the `Int` leaves by walking the mirror and the tree together.
    fn index_leaves(&mut self) {
        let mut out = Vec::new();
        let expr_node = self
            .tree
            .child(self.root, 0)
            .expect("root has its expression");
        let mut stack = vec![(&self.mirror, expr_node, self.root, 0usize, Vec::new())];
        while let Some((e, node, parent, index, path)) = stack.pop() {
            match children(e) {
                Some((a, b)) => {
                    for (i, c) in [a, b].into_iter().enumerate() {
                        let mut p = path.clone();
                        p.push(i as u8);
                        let child = self
                            .tree
                            .child(node, i)
                            .expect("inner nodes have two children");
                        stack.push((c, child, node, i, p));
                    }
                }
                None => {
                    if matches!(e, LetExpr::Int(_)) {
                        out.push(Leaf {
                            node,
                            parent,
                            index,
                            path,
                        });
                    }
                }
            }
        }
        out.sort_by_key(|l| l.node.index());
        self.leaves = out;
    }

    fn check(&self, got: &AttrVal) -> Result<(), String> {
        let want = self.mirror.eval_oracle(&HashMap::new());
        if *got == AttrVal::Int(want) {
            Ok(())
        } else {
            Err(format!("root value {got}, reference {want}"))
        }
    }
}

impl Workload for LetEager {
    type Input = Input;
    type Edit = Edit;
    type Answer = Answer;

    fn updates_per_round(scale: Scale) -> usize {
        match scale {
            Scale::Full => 8192,
            Scale::Small => 64,
        }
    }

    fn generate(mut rng: Rng, scale: Scale) -> Input {
        // 2^17 - 1 expression nodes plus the grammar's `Root`.
        let (size, names) = match scale {
            Scale::Full => ((1 << 17) - 1, 32),
            Scale::Small => ((1 << 10) - 1, 8),
        };
        let expr = gen(&mut rng, size, names, &mut Vec::new());
        Input { rng, expr }
    }

    fn digest(input: &Input) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        format!("{:?}", input.expr).hash(&mut h);
        h.finish()
    }

    fn setup(input: Input, ledger: &mut Ledger) -> LetEager {
        let Input { mut rng, expr } = input;
        let rt = Runtime::new();
        let (tree, lang) = LetLang::tree(&rt);
        let (root, _) = ledger.span("agkit.instantiate", || expr.instantiate(&tree, &lang));
        let eval = AgEvaluator::with_strategy(&rt, Arc::clone(&tree), Strategy::Eager);
        let first = ledger.span("agkit.syn", || eval.syn(root, lang.value));
        let check_rng = Rng::derive(rng.next_u64(), 0);
        LetEager {
            rt,
            tree,
            lang,
            eval,
            root,
            mirror: expr,
            leaves: Vec::new(),
            rng,
            check_rng,
            first,
        }
    }

    fn check_setup(&mut self) -> Checked {
        self.index_leaves();
        Checked::op(self.check(&self.first))
    }

    fn next_edit(&mut self, i: usize) -> Edit {
        let rng = &mut self.rng;
        let n = self.leaves.len();
        if i % GRAFT_EVERY == GRAFT_EVERY - 1 {
            Edit::Graft {
                leaf: rng.index(n),
                a: rng.below(VALUES) as i64,
                b: rng.below(VALUES) as i64,
            }
        } else {
            Edit::Terminals(
                (0..TERMINAL_EDITS)
                    .map(|_| (rng.index(n), rng.below(VALUES) as i64))
                    .collect(),
            )
        }
    }

    fn apply(&mut self, edit: &mut Edit, ledger: &mut Ledger) -> Answer {
        let (tree, lang, leaves) = (&self.tree, &self.lang, &self.leaves);
        let grafted = ledger.span("agkit.edit", || match edit {
            Edit::Terminals(edits) => {
                for &(j, v) in edits.iter() {
                    tree.set_terminal(leaves[j].node, 0, AttrVal::Int(v));
                }
                None
            }
            Edit::Graft { leaf, a, b } => {
                let l = &leaves[*leaf];
                let a = tree.new_node(lang.int, vec![AttrVal::Int(*a)]);
                let b = tree.new_node(lang.int, vec![AttrVal::Int(*b)]);
                let plus = tree.build(lang.plus, vec![], &[a, b]);
                tree.set_child(l.parent, l.index, Some(plus));
                Some((a, b, plus))
            }
        });
        ledger.span("runtime.propagate", || self.rt.propagate());
        let value = ledger.span("agkit.syn", || self.eval.syn(self.root, self.lang.value));
        Answer { value, grafted }
    }

    fn verify(&mut self, edit: Edit, answer: Answer) -> Checked {
        match (edit, answer.grafted) {
            (Edit::Terminals(edits), None) => {
                for (j, v) in edits {
                    *at_path(&mut self.mirror, &self.leaves[j].path) = LetExpr::Int(v);
                }
            }
            (Edit::Graft { leaf, a, b }, Some((na, nb, plus))) => {
                let old = self.leaves[leaf].clone();
                *at_path(&mut self.mirror, &old.path) =
                    LetExpr::Plus(Box::new(LetExpr::Int(a)), Box::new(LetExpr::Int(b)));
                let mut pa = old.path.clone();
                pa.push(0);
                let mut pb = old.path;
                pb.push(1);
                self.leaves[leaf] = Leaf {
                    node: na,
                    parent: plus,
                    index: 0,
                    path: pa,
                };
                self.leaves.push(Leaf {
                    node: nb,
                    parent: plus,
                    index: 1,
                    path: pb,
                });
            }
            _ => unreachable!("apply returns new nodes exactly for grafts"),
        }
        if self.check_rng.one_in(CHECK_ONE_IN) {
            Checked::op(self.check(&answer.value))
        } else {
            Checked::op(Ok(()))
        }
    }

    fn finish(&mut self) -> Checked {
        let value = self.eval.syn(self.root, self.lang.value);
        Checked::op(self.check(&value))
    }

    fn counts(&self) -> Counts {
        Counts::from_stats(&self.rt.stats())
    }

    fn graph(&self) -> (u64, u64) {
        (self.rt.node_count() as u64, self.rt.edge_count() as u64)
    }
}
