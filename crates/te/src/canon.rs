//! Canonical normal form for scalar bodies — the TE-side half of the
//! translation-validation pass (`souffle-verify`'s `certify` family).
//!
//! Two bodies that compute the same function through different transform
//! histories (inlining order, select nesting, fold-binder numbering,
//! operand renumbering) normalize to the *same* expression tree, so
//! equivalence checking is structural equality on canonical forms. The
//! normal form is reached by:
//!
//! 1. algebraic simplification ([`ScalarExpr::simplified`]) — constant
//!    folding and additive/multiplicative identities;
//! 2. linear normalization of every embedded [`IndexExpr`] (affine
//!    accesses rewrite to the unique `Σ cᵢ·vᵢ + c` form, so
//!    `(v0 + s) - s` and `v0` collide);
//! 3. domain-aware select resolution: a guard provable from the variable
//!    bounds alone (interval arithmetic) is discharged and the dead
//!    branch dropped — this is what collapses the horizontal
//!    transformation's `v0 + start < cut` predicates after view
//!    composition;
//! 4. sum-of-products flattening with sorted commutative operands and
//!    like-term merging over `Add`/`Sub`/`Mul`/`Neg` (equivalence is
//!    proved in real arithmetic; bit-exactness claims are made
//!    separately, per rewrite, by the certifier);
//! 5. De Bruijn renumbering of fold binders: the binder introduced at
//!    nesting depth `d` is renamed to `base + d`, erasing the arbitrary
//!    binder numbers transforms allocate.
//!
//! Canonical forms are *compared*, never evaluated or lowered — binder
//! numbers above the TE's variable budget are fine here.

use crate::expr::{BinaryOp, Cond, ScalarExpr, UnaryOp};
use souffle_affine::IndexExpr;

/// Wide default for variables with no known bounds (saturating interval
/// arithmetic keeps these conservative rather than wrapping).
const UNKNOWN: (i64, i64) = (i64::MIN / 4, i64::MAX / 4);

/// Canonicalizes `expr` under per-variable `bounds` (index `v` holds the
/// inclusive range of variable `v`; variables past the end are treated as
/// unbounded). `binder_base` must exceed every variable referenced in
/// `expr`; fold binders are renamed to `binder_base + depth`. Two
/// expressions canonicalized with the same `bounds`/`binder_base` are
/// semantically equal (in real arithmetic) if their canonical forms are
/// structurally equal.
pub fn canonicalize(expr: &ScalarExpr, bounds: &[(i64, i64)], binder_base: usize) -> ScalarExpr {
    let mut bounds = bounds.to_vec();
    let mut expr = expr.clone();
    expr.simplify();
    canon(&expr, &mut bounds, binder_base, 0)
}

/// Three-valued truth of `cond` under the variable bounds: `Some(b)` when
/// interval analysis decides the predicate for *every* point of the
/// domain, `None` when it genuinely depends on the point.
pub fn prove_cond(cond: &Cond, bounds: &[(i64, i64)]) -> Option<bool> {
    match cond {
        Cond::Cmp(op, a, b) => {
            let (alo, ahi) = interval_of(a, bounds);
            let (blo, bhi) = interval_of(b, bounds);
            use crate::expr::CmpOp::*;
            match op {
                Lt => decide(ahi < blo, alo >= bhi),
                Le => decide(ahi <= blo, alo > bhi),
                Gt => decide(alo > bhi, ahi <= blo),
                Ge => decide(alo >= bhi, ahi < blo),
                Eq => decide(
                    alo == ahi && blo == bhi && alo == blo,
                    ahi < blo || alo > bhi,
                ),
                Ne => decide(
                    ahi < blo || alo > bhi,
                    alo == ahi && blo == bhi && alo == blo,
                ),
            }
        }
        Cond::And(a, b) => match (prove_cond(a, bounds), prove_cond(b, bounds)) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        },
        Cond::Or(a, b) => match (prove_cond(a, bounds), prove_cond(b, bounds)) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        },
        Cond::Not(a) => prove_cond(a, bounds).map(|b| !b),
    }
}

fn decide(always: bool, never: bool) -> Option<bool> {
    if always {
        Some(true)
    } else if never {
        Some(false)
    } else {
        None
    }
}

/// Interval of an index expression, padding the bounds vector so
/// variables past the known range stay unbounded instead of panicking.
fn interval_of(e: &IndexExpr, bounds: &[(i64, i64)]) -> (i64, i64) {
    match e.max_var() {
        Some(m) if m >= bounds.len() => {
            let mut padded = bounds.to_vec();
            padded.resize(m + 1, UNKNOWN);
            e.interval(&padded)
        }
        _ => e.interval(bounds),
    }
}

/// Linear normalization: affine index expressions rewrite to the unique
/// `from_linear` form; quasi-affine ones (div/mod) just simplify.
fn canon_index(e: &IndexExpr) -> IndexExpr {
    let n = e.max_var().map_or(0, |m| m + 1);
    match e.as_linear(n) {
        Some((coeffs, c)) => IndexExpr::from_linear(&coeffs, c),
        None => e.simplified(),
    }
}

fn canon_cond(c: &Cond) -> Cond {
    match c {
        Cond::Cmp(op, a, b) => Cond::Cmp(*op, canon_index(a), canon_index(b)),
        Cond::And(a, b) => Cond::And(Box::new(canon_cond(a)), Box::new(canon_cond(b))),
        Cond::Or(a, b) => Cond::Or(Box::new(canon_cond(a)), Box::new(canon_cond(b))),
        Cond::Not(a) => Cond::Not(Box::new(canon_cond(a))),
    }
}

fn canon(e: &ScalarExpr, bounds: &mut Vec<(i64, i64)>, base: usize, depth: usize) -> ScalarExpr {
    match e {
        ScalarExpr::Const(c) => ScalarExpr::Const(*c),
        ScalarExpr::Input { operand, indices } => ScalarExpr::Input {
            operand: *operand,
            indices: indices.iter().map(canon_index).collect(),
        },
        ScalarExpr::IndexValue(ix) => match canon_index(ix) {
            IndexExpr::Const(c) => ScalarExpr::Const(c as f32),
            other => ScalarExpr::IndexValue(other),
        },
        ScalarExpr::Unary(op, a) => {
            let a = canon(a, bounds, base, depth);
            match (op, &a) {
                (_, ScalarExpr::Const(c)) => ScalarExpr::Const(op.apply(*c)),
                // Negation folds into the sum-of-products coefficient.
                (UnaryOp::Neg, _) => normal_sum(
                    &ScalarExpr::Unary(UnaryOp::Neg, Box::new(a)),
                    bounds,
                    base,
                    depth,
                ),
                _ => ScalarExpr::Unary(*op, Box::new(a)),
            }
        }
        ScalarExpr::Binary(op, a, b) => {
            let a = canon(a, bounds, base, depth);
            let b = canon(b, bounds, base, depth);
            match (&a, &b) {
                (ScalarExpr::Const(x), ScalarExpr::Const(y)) => ScalarExpr::Const(op.apply(*x, *y)),
                _ => match op {
                    BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul => normal_sum(
                        &ScalarExpr::Binary(*op, Box::new(a), Box::new(b)),
                        bounds,
                        base,
                        depth,
                    ),
                    BinaryOp::Div => match &b {
                        ScalarExpr::Const(c) if *c == 1.0 => a,
                        _ => ScalarExpr::Binary(*op, Box::new(a), Box::new(b)),
                    },
                    _ => ScalarExpr::Binary(*op, Box::new(a), Box::new(b)),
                },
            }
        }
        ScalarExpr::Select {
            cond,
            on_true,
            on_false,
        } => {
            let cond = canon_cond(cond);
            match prove_cond(&cond, bounds) {
                Some(true) => canon(on_true, bounds, base, depth),
                Some(false) => canon(on_false, bounds, base, depth),
                None => {
                    let t = canon(on_true, bounds, base, depth);
                    let f = canon(on_false, bounds, base, depth);
                    if t == f {
                        t
                    } else {
                        ScalarExpr::Select {
                            cond,
                            on_true: Box::new(t),
                            on_false: Box::new(f),
                        }
                    }
                }
            }
        }
        ScalarExpr::Reduce {
            op,
            var,
            extent,
            body,
        } => {
            // De Bruijn: the binder at this nesting depth is always
            // `base + depth`, whatever number the transform allocated.
            let cv = base + depth;
            let n = body.max_var().map_or(0, |m| m + 1).max(*var + 1);
            let mut subs: Vec<IndexExpr> = (0..n).map(IndexExpr::var).collect();
            subs[*var] = IndexExpr::var(cv);
            let renamed = body.substitute(&subs, &|o| o);
            if bounds.len() <= cv {
                bounds.resize(cv + 1, UNKNOWN);
            }
            let saved = bounds[cv];
            bounds[cv] = (0, (*extent - 1).max(0));
            let cbody = canon(&renamed, bounds, base, depth + 1);
            bounds[cv] = saved;
            ScalarExpr::Reduce {
                op: *op,
                var: cv,
                extent: *extent,
                body: Box::new(cbody),
            }
        }
    }
}

/// One additive term of a flattened sum: a coefficient times a sorted
/// product of opaque (non-`Add`/`Sub`/`Mul`/`Neg`) canonical factors.
struct Term {
    coef: f32,
    factors: Vec<ScalarExpr>,
}

/// Flattens an `Add`/`Sub`/`Mul`/`Neg` tree (whose children are already
/// canonical) into sorted, like-term-merged sum-of-products and rebuilds
/// the unique left-associated expression.
fn normal_sum(
    e: &ScalarExpr,
    bounds: &mut Vec<(i64, i64)>,
    base: usize,
    depth: usize,
) -> ScalarExpr {
    let mut terms = terms_of(e, bounds, base, depth);
    for t in &mut terms {
        t.factors.sort_by_key(|f| format!("{f:?}"));
    }
    terms.sort_by_key(|t| {
        t.factors
            .iter()
            .map(|f| format!("{f:?}"))
            .collect::<Vec<_>>()
            .join("\u{1}")
    });
    // Merge adjacent like terms; drop vanished ones.
    let mut merged: Vec<Term> = Vec::with_capacity(terms.len());
    for t in terms {
        match merged.last_mut() {
            Some(last) if last.factors == t.factors => last.coef += t.coef,
            _ => merged.push(t),
        }
    }
    merged.retain(|t| t.coef != 0.0);
    if merged.is_empty() {
        return ScalarExpr::Const(0.0);
    }
    let mut out: Option<ScalarExpr> = None;
    for t in merged {
        let product = {
            let mut it = t.factors.into_iter();
            match it.next() {
                None => ScalarExpr::Const(t.coef),
                Some(first) => {
                    let p = it.fold(first, |acc, f| {
                        ScalarExpr::Binary(BinaryOp::Mul, Box::new(acc), Box::new(f))
                    });
                    if t.coef == 1.0 {
                        p
                    } else {
                        ScalarExpr::Binary(
                            BinaryOp::Mul,
                            Box::new(ScalarExpr::Const(t.coef)),
                            Box::new(p),
                        )
                    }
                }
            }
        };
        out = Some(match out {
            None => product,
            Some(acc) => ScalarExpr::Binary(BinaryOp::Add, Box::new(acc), Box::new(product)),
        });
    }
    out.expect("non-empty merged terms")
}

fn terms_of(e: &ScalarExpr, bounds: &mut Vec<(i64, i64)>, base: usize, depth: usize) -> Vec<Term> {
    match e {
        ScalarExpr::Binary(BinaryOp::Add, a, b) => {
            let mut t = terms_of(a, bounds, base, depth);
            t.extend(terms_of(b, bounds, base, depth));
            t
        }
        ScalarExpr::Binary(BinaryOp::Sub, a, b) => {
            let mut t = terms_of(a, bounds, base, depth);
            t.extend(terms_of(b, bounds, base, depth).into_iter().map(|mut x| {
                x.coef = -x.coef;
                x
            }));
            t
        }
        ScalarExpr::Binary(BinaryOp::Mul, a, b) => {
            let ta = terms_of(a, bounds, base, depth);
            let tb = terms_of(b, bounds, base, depth);
            let mut out = Vec::with_capacity(ta.len() * tb.len());
            for x in &ta {
                for y in &tb {
                    let mut factors = x.factors.clone();
                    factors.extend(y.factors.iter().cloned());
                    out.push(Term {
                        coef: x.coef * y.coef,
                        factors,
                    });
                }
            }
            out
        }
        ScalarExpr::Unary(UnaryOp::Neg, a) => terms_of(a, bounds, base, depth)
            .into_iter()
            .map(|mut x| {
                x.coef = -x.coef;
                x
            })
            .collect(),
        ScalarExpr::Const(c) => vec![Term {
            coef: *c,
            factors: Vec::new(),
        }],
        // Opaque factor: canonicalize it as its own subtree. Children
        // arriving from `canon` are canonical already and re-canonicalize
        // to themselves; factors synthesized mid-flattening get normalized
        // here.
        other => vec![Term {
            coef: 1.0,
            factors: vec![opaque(other, bounds, base, depth)],
        }],
    }
}

/// Canonicalizes an opaque factor without re-entering `normal_sum` on an
/// already-normal child (idempotence).
fn opaque(e: &ScalarExpr, bounds: &mut Vec<(i64, i64)>, base: usize, depth: usize) -> ScalarExpr {
    match e {
        ScalarExpr::Binary(BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul, _, _)
        | ScalarExpr::Unary(UnaryOp::Neg, _) => canon(e, bounds, base, depth),
        _ => e.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use crate::te::ReduceOp;

    fn v(i: usize) -> IndexExpr {
        IndexExpr::var(i)
    }

    #[test]
    fn commutative_operands_sort() {
        let a = ScalarExpr::binary(
            BinaryOp::Add,
            ScalarExpr::input(0, vec![v(0)]),
            ScalarExpr::input(1, vec![v(0)]),
        );
        let b = ScalarExpr::binary(
            BinaryOp::Add,
            ScalarExpr::input(1, vec![v(0)]),
            ScalarExpr::input(0, vec![v(0)]),
        );
        let bounds = [(0, 7)];
        assert_eq!(canonicalize(&a, &bounds, 8), canonicalize(&b, &bounds, 8));
    }

    #[test]
    fn like_terms_merge_and_constants_fold() {
        // x + x + 1 - 1  ==  2*x
        let x = || ScalarExpr::input(0, vec![v(0)]);
        let e = ScalarExpr::binary(
            BinaryOp::Sub,
            ScalarExpr::binary(
                BinaryOp::Add,
                ScalarExpr::binary(BinaryOp::Add, x(), x()),
                ScalarExpr::Const(1.0),
            ),
            ScalarExpr::Const(1.0),
        );
        let want = ScalarExpr::binary(BinaryOp::Mul, ScalarExpr::Const(2.0), x());
        let bounds = [(0, 7)];
        assert_eq!(
            canonicalize(&e, &bounds, 8),
            canonicalize(&want, &bounds, 8)
        );
    }

    #[test]
    fn affine_indices_normalize() {
        // in0[(v0 + 3) - 3] == in0[v0]
        let shifted = ScalarExpr::input(
            0,
            vec![v(0).add(IndexExpr::constant(3)).sub(IndexExpr::constant(3))],
        );
        let plain = ScalarExpr::input(0, vec![v(0)]);
        let bounds = [(0, 7)];
        assert_eq!(
            canonicalize(&shifted, &bounds, 8),
            canonicalize(&plain, &bounds, 8)
        );
    }

    #[test]
    fn provable_guards_resolve() {
        // v0 in [0, 4): select(v0 < 8, a, b) == a; select(v0 < 0, a, b) == b
        let a = ScalarExpr::input(0, vec![v(0)]);
        let b = ScalarExpr::input(1, vec![v(0)]);
        let bounds = [(0, 3)];
        let taken = ScalarExpr::select(
            Cond::cmp(CmpOp::Lt, v(0), IndexExpr::constant(8)),
            a.clone(),
            b.clone(),
        );
        assert_eq!(
            canonicalize(&taken, &bounds, 8),
            canonicalize(&a, &bounds, 8)
        );
        let untaken = ScalarExpr::select(
            Cond::cmp(CmpOp::Lt, v(0), IndexExpr::constant(0)),
            a.clone(),
            b.clone(),
        );
        assert_eq!(
            canonicalize(&untaken, &bounds, 8),
            canonicalize(&b, &bounds, 8)
        );
        // Straddling guard stays.
        let kept = ScalarExpr::select(
            Cond::cmp(CmpOp::Lt, v(0), IndexExpr::constant(2)),
            a.clone(),
            b.clone(),
        );
        assert!(matches!(
            canonicalize(&kept, &bounds, 8),
            ScalarExpr::Select { .. }
        ));
    }

    #[test]
    fn fold_binders_rename_to_de_bruijn() {
        // fold over binder 7 and binder 9 with identical bodies collide.
        let mk = |binder: usize| {
            ScalarExpr::fold(
                ReduceOp::Sum,
                binder,
                16,
                ScalarExpr::input(0, vec![v(0), v(binder)]),
            )
        };
        let bounds = [(0, 3)];
        assert_eq!(
            canonicalize(&mk(7), &bounds, 32),
            canonicalize(&mk(9), &bounds, 32)
        );
    }

    #[test]
    fn canonicalization_is_idempotent() {
        let e = ScalarExpr::binary(
            BinaryOp::Mul,
            ScalarExpr::binary(
                BinaryOp::Add,
                ScalarExpr::input(0, vec![v(0)]),
                ScalarExpr::Const(2.0),
            ),
            ScalarExpr::unary(UnaryOp::Exp, ScalarExpr::input(1, vec![v(0)])),
        );
        let bounds = [(0, 7)];
        let once = canonicalize(&e, &bounds, 8);
        let twice = canonicalize(&once, &bounds, 8);
        assert_eq!(once, twice);
    }

    #[test]
    fn prove_cond_three_valued() {
        let bounds = [(0, 3)];
        let lt = |c: i64| Cond::cmp(CmpOp::Lt, v(0), IndexExpr::constant(c));
        assert_eq!(prove_cond(&lt(4), &bounds), Some(true));
        assert_eq!(prove_cond(&lt(0), &bounds), Some(false));
        assert_eq!(prove_cond(&lt(2), &bounds), None);
        assert_eq!(prove_cond(&lt(4).and(lt(2)), &bounds), None,);
        assert_eq!(prove_cond(&lt(0).or(lt(4)), &bounds), Some(true));
        assert_eq!(
            prove_cond(&Cond::Not(Box::new(lt(4))), &bounds),
            Some(false)
        );
    }
}
