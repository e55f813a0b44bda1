//! Quasi-affine integer index expressions.

use std::fmt;

/// A quasi-affine integer expression over positional variables `v0..vn`.
///
/// The affine fragment (`Var`, `Const`, `Add`, `Sub`, `Mul` by constant)
/// corresponds exactly to the paper's `M·v + c` form (Eq. 1). Floor
/// division and modulo extend it to the *quasi*-affine maps the paper uses
/// for `reshape`-style operators (linearize/delinearize are quasi-affine).
///
/// ```
/// use souffle_affine::IndexExpr;
/// // (2*v0 + v1) mod 4
/// let e = IndexExpr::var(0).mul(2).add(IndexExpr::var(1)).modulo(4);
/// assert_eq!(e.eval(&[3, 1]), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum IndexExpr {
    /// The `i`-th input variable.
    Var(usize),
    /// An integer constant.
    Const(i64),
    /// Sum of two expressions.
    Add(Box<IndexExpr>, Box<IndexExpr>),
    /// Difference of two expressions.
    Sub(Box<IndexExpr>, Box<IndexExpr>),
    /// Product with a constant (affine maps only permit constant factors).
    Mul(Box<IndexExpr>, i64),
    /// Floor division by a positive constant.
    FloorDiv(Box<IndexExpr>, i64),
    /// Euclidean remainder by a positive constant.
    Mod(Box<IndexExpr>, i64),
}

#[allow(clippy::should_implement_trait)] // fluent builder API: add/sub/mul are index arithmetic, not std ops
impl IndexExpr {
    /// Shorthand for [`IndexExpr::Var`].
    pub fn var(i: usize) -> Self {
        IndexExpr::Var(i)
    }

    /// Shorthand for [`IndexExpr::Const`].
    pub fn constant(c: i64) -> Self {
        IndexExpr::Const(c)
    }

    /// `self + rhs`.
    pub fn add(self, rhs: IndexExpr) -> Self {
        IndexExpr::Add(Box::new(self), Box::new(rhs)).simplified()
    }

    /// `self - rhs`.
    pub fn sub(self, rhs: IndexExpr) -> Self {
        IndexExpr::Sub(Box::new(self), Box::new(rhs)).simplified()
    }

    /// `self * k`.
    pub fn mul(self, k: i64) -> Self {
        IndexExpr::Mul(Box::new(self), k).simplified()
    }

    /// `self / k` (floor), `k > 0`.
    ///
    /// # Panics
    ///
    /// Panics if `k <= 0`.
    pub fn floor_div(self, k: i64) -> Self {
        assert!(k > 0, "floor_div requires a positive divisor, got {k}");
        IndexExpr::FloorDiv(Box::new(self), k).simplified()
    }

    /// `self mod k` (Euclidean), `k > 0`.
    ///
    /// # Panics
    ///
    /// Panics if `k <= 0`.
    pub fn modulo(self, k: i64) -> Self {
        assert!(k > 0, "modulo requires a positive modulus, got {k}");
        IndexExpr::Mod(Box::new(self), k).simplified()
    }

    /// Evaluates the expression with values `vars[i]` for `Var(i)`.
    ///
    /// # Panics
    ///
    /// Panics if a variable index is out of range of `vars`.
    pub fn eval(&self, vars: &[i64]) -> i64 {
        match self {
            IndexExpr::Var(i) => vars[*i],
            IndexExpr::Const(c) => *c,
            IndexExpr::Add(a, b) => a.eval(vars) + b.eval(vars),
            IndexExpr::Sub(a, b) => a.eval(vars) - b.eval(vars),
            IndexExpr::Mul(a, k) => a.eval(vars) * k,
            IndexExpr::FloorDiv(a, k) => a.eval(vars).div_euclid(*k),
            IndexExpr::Mod(a, k) => a.eval(vars).rem_euclid(*k),
        }
    }

    /// Substitutes `subs[i]` for `Var(i)`, composing index functions.
    ///
    /// # Panics
    ///
    /// Panics if a variable index is out of range of `subs`.
    pub fn substitute(&self, subs: &[IndexExpr]) -> IndexExpr {
        // When the expression and every substitution it reads are affine,
        // compose the coefficient vectors directly: simplifying an affine
        // tree yields `from_linear` of its coefficients, so the result is
        // the one the node-by-node rewrite below would build.
        let mut coeffs = Vec::new();
        let mut constant = 0i64;
        if self
            .accumulate_linear(Some(subs), 1, &mut coeffs, &mut constant)
            .is_some()
        {
            return IndexExpr::from_linear(&coeffs, constant);
        }
        let out = match self {
            IndexExpr::Var(i) => subs[*i].clone(),
            IndexExpr::Const(c) => IndexExpr::Const(*c),
            IndexExpr::Add(a, b) => {
                IndexExpr::Add(Box::new(a.substitute(subs)), Box::new(b.substitute(subs)))
            }
            IndexExpr::Sub(a, b) => {
                IndexExpr::Sub(Box::new(a.substitute(subs)), Box::new(b.substitute(subs)))
            }
            IndexExpr::Mul(a, k) => IndexExpr::Mul(Box::new(a.substitute(subs)), *k),
            IndexExpr::FloorDiv(a, k) => IndexExpr::FloorDiv(Box::new(a.substitute(subs)), *k),
            IndexExpr::Mod(a, k) => IndexExpr::Mod(Box::new(a.substitute(subs)), *k),
        };
        out.simplified()
    }

    /// Largest variable index referenced, or `None` for constant expressions.
    pub fn max_var(&self) -> Option<usize> {
        match self {
            IndexExpr::Var(i) => Some(*i),
            IndexExpr::Const(_) => None,
            IndexExpr::Add(a, b) | IndexExpr::Sub(a, b) => a.max_var().max(b.max_var()),
            IndexExpr::Mul(a, _) | IndexExpr::FloorDiv(a, _) | IndexExpr::Mod(a, _) => a.max_var(),
        }
    }

    /// Calls `f` for every `Var(i)` occurrence (with repetition).
    pub fn for_each_var(&self, f: &mut dyn FnMut(usize)) {
        match self {
            IndexExpr::Var(i) => f(*i),
            IndexExpr::Const(_) => {}
            IndexExpr::Add(a, b) | IndexExpr::Sub(a, b) => {
                a.for_each_var(f);
                b.for_each_var(f);
            }
            IndexExpr::Mul(a, _) | IndexExpr::FloorDiv(a, _) | IndexExpr::Mod(a, _) => {
                a.for_each_var(f)
            }
        }
    }

    /// Remaps every `Var(i)` to `Var(i + offset)`.
    pub fn shift_vars(&self, offset: usize) -> IndexExpr {
        match self {
            IndexExpr::Var(i) => IndexExpr::Var(i + offset),
            IndexExpr::Const(c) => IndexExpr::Const(*c),
            IndexExpr::Add(a, b) => IndexExpr::Add(
                Box::new(a.shift_vars(offset)),
                Box::new(b.shift_vars(offset)),
            ),
            IndexExpr::Sub(a, b) => IndexExpr::Sub(
                Box::new(a.shift_vars(offset)),
                Box::new(b.shift_vars(offset)),
            ),
            IndexExpr::Mul(a, k) => IndexExpr::Mul(Box::new(a.shift_vars(offset)), *k),
            IndexExpr::FloorDiv(a, k) => IndexExpr::FloorDiv(Box::new(a.shift_vars(offset)), *k),
            IndexExpr::Mod(a, k) => IndexExpr::Mod(Box::new(a.shift_vars(offset)), *k),
        }
    }

    /// Returns `(coeffs, constant)` if the expression is purely affine:
    /// `sum(coeffs[i] * v_i) + constant`. `coeffs` is sized to `n_vars`.
    ///
    /// Quasi-affine sub-terms (`FloorDiv`/`Mod` over non-constant operands)
    /// yield `None`.
    pub fn as_linear(&self, n_vars: usize) -> Option<(Vec<i64>, i64)> {
        let mut coeffs = Vec::with_capacity(n_vars);
        let mut constant = 0i64;
        self.accumulate_linear(None, 1, &mut coeffs, &mut constant)?;
        if coeffs.len() > n_vars {
            return None;
        }
        coeffs.resize(n_vars, 0);
        Some((coeffs, constant))
    }

    /// Adds `factor` times the affine form of `self` into `coeffs` (grown
    /// to cover every variable visited) and `constant`, reading `subs[i]`
    /// in place of `Var(i)` when `subs` is given. `None` when `self`, or a
    /// substitution it reads, is not affine.
    fn accumulate_linear(
        &self,
        subs: Option<&[IndexExpr]>,
        factor: i64,
        coeffs: &mut Vec<i64>,
        constant: &mut i64,
    ) -> Option<()> {
        match self {
            IndexExpr::Var(i) => match subs {
                Some(subs) => subs[*i].accumulate_linear(None, factor, coeffs, constant),
                None => {
                    if coeffs.len() <= *i {
                        coeffs.resize(*i + 1, 0);
                    }
                    coeffs[*i] += factor;
                    Some(())
                }
            },
            IndexExpr::Const(c) => {
                *constant += factor * c;
                Some(())
            }
            IndexExpr::Add(a, b) => {
                a.accumulate_linear(subs, factor, coeffs, constant)?;
                b.accumulate_linear(subs, factor, coeffs, constant)
            }
            IndexExpr::Sub(a, b) => {
                a.accumulate_linear(subs, factor, coeffs, constant)?;
                b.accumulate_linear(subs, -factor, coeffs, constant)
            }
            IndexExpr::Mul(a, k) => a.accumulate_linear(subs, factor * k, coeffs, constant),
            IndexExpr::FloorDiv(..) | IndexExpr::Mod(..) => None,
        }
    }

    /// Whether the expression is purely affine (no floor-div / mod).
    pub fn is_affine(&self) -> bool {
        match self {
            IndexExpr::Var(_) | IndexExpr::Const(_) => true,
            IndexExpr::Add(a, b) | IndexExpr::Sub(a, b) => a.is_affine() && b.is_affine(),
            IndexExpr::Mul(a, _) => a.is_affine(),
            IndexExpr::FloorDiv(..) | IndexExpr::Mod(..) => false,
        }
    }

    /// Simplifies by constant folding, dropping additive/multiplicative
    /// identities, and canonicalizing affine sub-expressions to a sorted
    /// sum-of-terms form. Floor-div/mod over exactly divisible affine bodies
    /// are reduced (e.g. `(4*v0)/4 → v0`), which is what makes
    /// reshape-then-inverse-reshape compose back to the identity map.
    pub fn simplified(&self) -> IndexExpr {
        // First canonicalize affine parts.
        let n = self.max_var().map_or(0, |m| m + 1);
        if let Some((coeffs, c)) = self.as_linear(n) {
            return IndexExpr::from_linear(&coeffs, c);
        }
        match self {
            IndexExpr::Add(a, b) => {
                let (a, b) = (a.simplified(), b.simplified());
                match (&a, &b) {
                    (IndexExpr::Const(x), IndexExpr::Const(y)) => IndexExpr::Const(x + y),
                    (IndexExpr::Const(0), _) => b,
                    (_, IndexExpr::Const(0)) => a,
                    _ => IndexExpr::Add(Box::new(a), Box::new(b)),
                }
            }
            IndexExpr::Sub(a, b) => {
                let (a, b) = (a.simplified(), b.simplified());
                match (&a, &b) {
                    (IndexExpr::Const(x), IndexExpr::Const(y)) => IndexExpr::Const(x - y),
                    (_, IndexExpr::Const(0)) => a,
                    _ => IndexExpr::Sub(Box::new(a), Box::new(b)),
                }
            }
            IndexExpr::Mul(a, k) => {
                let a = a.simplified();
                match (&a, *k) {
                    (_, 0) => IndexExpr::Const(0),
                    (_, 1) => a,
                    (IndexExpr::Const(x), k) => IndexExpr::Const(x * k),
                    _ => IndexExpr::Mul(Box::new(a), *k),
                }
            }
            IndexExpr::FloorDiv(a, k) => {
                let a = a.simplified();
                if *k == 1 {
                    return a;
                }
                if let IndexExpr::Const(x) = a {
                    return IndexExpr::Const(x.div_euclid(*k));
                }
                // (sum of terms all divisible by k) / k
                let n = a.max_var().map_or(0, |m| m + 1);
                if let Some((coeffs, c)) = a.as_linear(n) {
                    if coeffs.iter().all(|&co| co % k == 0) && c % k == 0 {
                        let coeffs: Vec<i64> = coeffs.iter().map(|co| co / k).collect();
                        return IndexExpr::from_linear(&coeffs, c / k);
                    }
                }
                IndexExpr::FloorDiv(Box::new(a), *k)
            }
            IndexExpr::Mod(a, k) => {
                let a = a.simplified();
                if *k == 1 {
                    return IndexExpr::Const(0);
                }
                if let IndexExpr::Const(x) = a {
                    return IndexExpr::Const(x.rem_euclid(*k));
                }
                let n = a.max_var().map_or(0, |m| m + 1);
                if let Some((coeffs, c)) = a.as_linear(n) {
                    if coeffs.iter().all(|&co| co % k == 0) && c % k == 0 {
                        return IndexExpr::Const(0);
                    }
                }
                IndexExpr::Mod(Box::new(a), *k)
            }
            other => other.clone(),
        }
    }

    /// Simplifies floor-div and mod using the variable bounds
    /// `bounds[i] = (lo, hi)` (inclusive), which [`IndexExpr::simplified`]
    /// cannot see. For `⌊x/k⌋` and `x mod k` the linear form of `x` —
    /// with each nested floor-div/mod counted as an atom with its own
    /// interval — splits into the multiples of `k` and a remainder `r`:
    /// `⌊(k·q + r)/k⌋ = q + ⌊r/k⌋` and `(k·q + r) mod k = r mod k`. When
    /// `r`'s interval lies in one block `[d·k, d·k + k)`, `⌊r/k⌋` is the
    /// constant `d` and `r mod k` is `r − d·k`. So a delinearization whose
    /// remainder provably stays inside its block becomes affine, e.g.
    /// `(64·v0 + 16·v1 + v2) / 64 → v0` for `v1 < 4`, `v2 < 16`.
    ///
    /// The result equals `self` at every point of the box (integer
    /// arithmetic is exact), which is all that callers evaluating over that
    /// box may rely on.
    ///
    /// # Panics
    ///
    /// Panics if a variable index is out of range of `bounds`.
    pub fn simplified_within(&self, bounds: &[(i64, i64)]) -> IndexExpr {
        let rebuilt = match self {
            IndexExpr::Var(_) | IndexExpr::Const(_) => return self.clone(),
            IndexExpr::Add(a, b) => IndexExpr::Add(
                Box::new(a.simplified_within(bounds)),
                Box::new(b.simplified_within(bounds)),
            ),
            IndexExpr::Sub(a, b) => IndexExpr::Sub(
                Box::new(a.simplified_within(bounds)),
                Box::new(b.simplified_within(bounds)),
            ),
            IndexExpr::Mul(a, k) => IndexExpr::Mul(Box::new(a.simplified_within(bounds)), *k),
            IndexExpr::FloorDiv(a, k) | IndexExpr::Mod(a, k) if *k > 0 => {
                let (k, is_div) = (*k, matches!(self, IndexExpr::FloorDiv(..)));
                let mut terms = Vec::new();
                let mut constant = 0i64;
                a.simplified_within(bounds)
                    .collect_terms(1, &mut terms, &mut constant);
                let (quot, rem): (Vec<_>, Vec<_>) =
                    terms.into_iter().partition(|(c, _)| c % k == 0);
                let quot: Vec<(i64, IndexExpr)> =
                    quot.into_iter().map(|(c, e)| (c / k, e)).collect();
                let (quot_c, rem_c) = (constant.div_euclid(k), constant.rem_euclid(k));
                let r = IndexExpr::from_terms(&rem, rem_c);
                let (lo, hi) = r.interval(bounds);
                let block =
                    (lo != i64::MIN && hi != i64::MAX && lo.div_euclid(k) == hi.div_euclid(k))
                        .then(|| lo.div_euclid(k));
                return match (is_div, block) {
                    (true, Some(d)) => IndexExpr::from_terms(&quot, quot_c + d),
                    (true, None) => {
                        let mut quot = quot;
                        quot.push((1, IndexExpr::FloorDiv(Box::new(r), k)));
                        IndexExpr::from_terms(&quot, quot_c)
                    }
                    (false, Some(d)) => IndexExpr::from_terms(&rem, rem_c - d * k),
                    (false, None) => IndexExpr::Mod(Box::new(r), k),
                };
            }
            IndexExpr::FloorDiv(..) | IndexExpr::Mod(..) => return self.clone(),
        };
        rebuilt.simplified()
    }

    /// Adds `factor` times `self` into `terms` as `(coefficient, atom)`
    /// pairs — an atom is a variable or a floor-div/mod node, equal atoms
    /// merged — and the constant part into `constant`.
    fn collect_terms(&self, factor: i64, terms: &mut Vec<(i64, IndexExpr)>, constant: &mut i64) {
        match self {
            IndexExpr::Const(c) => *constant += factor * c,
            IndexExpr::Add(a, b) => {
                a.collect_terms(factor, terms, constant);
                b.collect_terms(factor, terms, constant);
            }
            IndexExpr::Sub(a, b) => {
                a.collect_terms(factor, terms, constant);
                b.collect_terms(-factor, terms, constant);
            }
            IndexExpr::Mul(a, k) => a.collect_terms(factor * k, terms, constant),
            IndexExpr::Var(_) | IndexExpr::FloorDiv(..) | IndexExpr::Mod(..) => {
                match terms.iter_mut().find(|(_, atom)| atom == self) {
                    Some((c, _)) => *c += factor,
                    None => terms.push((factor, self.clone())),
                }
            }
        }
    }

    /// `Σ c·atom + constant`: the variables in canonical affine form, then
    /// the floor-div/mod atoms in order.
    fn from_terms(terms: &[(i64, IndexExpr)], constant: i64) -> IndexExpr {
        let mut coeffs = Vec::new();
        let mut atoms = Vec::new();
        for (c, atom) in terms.iter().filter(|(c, _)| *c != 0) {
            match atom {
                IndexExpr::Var(i) => {
                    if coeffs.len() <= *i {
                        coeffs.resize(*i + 1, 0);
                    }
                    coeffs[*i] += c;
                }
                _ => atoms.push((*c, atom)),
            }
        }
        if atoms.is_empty() {
            return IndexExpr::from_linear(&coeffs, constant);
        }
        let mut expr = IndexExpr::from_linear(&coeffs, 0);
        for (c, atom) in atoms {
            let term = match c {
                1 => atom.clone(),
                c => IndexExpr::Mul(Box::new(atom.clone()), c),
            };
            expr = match expr {
                IndexExpr::Const(0) => term,
                e => IndexExpr::Add(Box::new(e), Box::new(term)),
            };
        }
        match constant {
            0 => expr,
            c => IndexExpr::Add(Box::new(expr), Box::new(IndexExpr::Const(c))),
        }
    }

    /// Conservative interval of the expression when each variable `v_i`
    /// ranges over `bounds[i] = (lo, hi)` inclusive. Used for static bounds
    /// checking and for tile-footprint estimation in the scheduler.
    ///
    /// All arithmetic saturates at `i64::MIN`/`i64::MAX`, so adversarial
    /// coefficients cannot overflow the bound computation into a spuriously
    /// in-bounds interval — a saturated bound is still an over-approximation
    /// of the true range, which is the safe direction for a verifier.
    ///
    /// # Panics
    ///
    /// Panics if a variable index is out of range of `bounds`.
    pub fn interval(&self, bounds: &[(i64, i64)]) -> (i64, i64) {
        match self {
            IndexExpr::Var(i) => bounds[*i],
            IndexExpr::Const(c) => (*c, *c),
            IndexExpr::Add(a, b) => {
                let (al, ah) = a.interval(bounds);
                let (bl, bh) = b.interval(bounds);
                (al.saturating_add(bl), ah.saturating_add(bh))
            }
            IndexExpr::Sub(a, b) => {
                let (al, ah) = a.interval(bounds);
                let (bl, bh) = b.interval(bounds);
                (al.saturating_sub(bh), ah.saturating_sub(bl))
            }
            IndexExpr::Mul(a, k) => {
                let (al, ah) = a.interval(bounds);
                if *k >= 0 {
                    (al.saturating_mul(*k), ah.saturating_mul(*k))
                } else {
                    (ah.saturating_mul(*k), al.saturating_mul(*k))
                }
            }
            IndexExpr::FloorDiv(a, k) => {
                let (al, ah) = a.interval(bounds);
                (al.div_euclid(*k), ah.div_euclid(*k))
            }
            IndexExpr::Mod(a, k) => {
                let (al, ah) = a.interval(bounds);
                if al.div_euclid(*k) == ah.div_euclid(*k) {
                    (al.rem_euclid(*k), ah.rem_euclid(*k))
                } else {
                    (0, k - 1)
                }
            }
        }
    }

    /// Builds a canonical affine expression from coefficients and constant.
    pub fn from_linear(coeffs: &[i64], constant: i64) -> IndexExpr {
        let mut expr: Option<IndexExpr> = None;
        for (i, &c) in coeffs.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let term = if c == 1 {
                IndexExpr::Var(i)
            } else {
                IndexExpr::Mul(Box::new(IndexExpr::Var(i)), c)
            };
            expr = Some(match expr {
                None => term,
                Some(e) => IndexExpr::Add(Box::new(e), Box::new(term)),
            });
        }
        match (expr, constant) {
            (None, c) => IndexExpr::Const(c),
            (Some(e), 0) => e,
            (Some(e), c) => IndexExpr::Add(Box::new(e), Box::new(IndexExpr::Const(c))),
        }
    }
}

impl fmt::Display for IndexExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexExpr::Var(i) => write!(f, "v{i}"),
            IndexExpr::Const(c) => write!(f, "{c}"),
            IndexExpr::Add(a, b) => write!(f, "({a} + {b})"),
            IndexExpr::Sub(a, b) => write!(f, "({a} - {b})"),
            IndexExpr::Mul(a, k) => write!(f, "{k}*{a}"),
            IndexExpr::FloorDiv(a, k) => write!(f, "({a} / {k})"),
            IndexExpr::Mod(a, k) => write!(f, "({a} % {k})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use souffle_testkit::{forall, tk_assert_eq, Config, Rng, Shrink};

    #[test]
    fn eval_basic() {
        let e = IndexExpr::var(0).mul(2).add(IndexExpr::var(1));
        assert_eq!(e.eval(&[3, 4]), 10);
    }

    #[test]
    fn substitute_composes() {
        // e = v0 + 2*v1 ; subs v0 -> v0*3, v1 -> 5
        let e = IndexExpr::var(0).add(IndexExpr::var(1).mul(2));
        let s = e.substitute(&[IndexExpr::var(0).mul(3), IndexExpr::constant(5)]);
        assert_eq!(s.eval(&[2]), 16);
    }

    #[test]
    fn simplify_identities() {
        assert_eq!(IndexExpr::var(0).mul(1), IndexExpr::Var(0));
        assert_eq!(IndexExpr::var(0).mul(0), IndexExpr::Const(0));
        assert_eq!(
            IndexExpr::var(0).add(IndexExpr::constant(0)),
            IndexExpr::Var(0)
        );
        assert_eq!(IndexExpr::constant(7).floor_div(2), IndexExpr::Const(3));
        assert_eq!(IndexExpr::constant(7).modulo(2), IndexExpr::Const(1));
    }

    #[test]
    fn divisible_div_mod_reduce() {
        // (4*v0 + 8) / 4 == v0 + 2
        let e = IndexExpr::var(0)
            .mul(4)
            .add(IndexExpr::constant(8))
            .floor_div(4);
        assert_eq!(e, IndexExpr::var(0).add(IndexExpr::constant(2)));
        // (4*v0) % 4 == 0
        let m = IndexExpr::var(0).mul(4).modulo(4);
        assert_eq!(m, IndexExpr::Const(0));
    }

    #[test]
    fn linearize_delinearize_identity() {
        // reshape (a,b) -> flat -> (a,b): flat = v0*B + v1, then /B and %B.
        const B: i64 = 6;
        let flat = IndexExpr::var(0).mul(B).add(IndexExpr::var(1));
        let row = flat.clone().floor_div(B);
        let col = flat.modulo(B);
        // row should simplify to v0 only when v1 < B is known; we cannot
        // prove that symbolically, so evaluate instead.
        for i in 0..3 {
            for j in 0..B {
                assert_eq!(row.eval(&[i, j]), i);
                assert_eq!(col.eval(&[i, j]), j);
            }
        }
    }

    #[test]
    fn as_linear_extracts_coefficients() {
        let e = IndexExpr::var(1)
            .mul(3)
            .add(IndexExpr::var(0))
            .sub(IndexExpr::constant(2));
        let (coeffs, c) = e.as_linear(2).unwrap();
        assert_eq!(coeffs, vec![1, 3]);
        assert_eq!(c, -2);
    }

    #[test]
    fn as_linear_rejects_quasi() {
        let e = IndexExpr::var(0).add(IndexExpr::var(1)).floor_div(3);
        assert!(e.as_linear(2).is_none());
        assert!(!e.is_affine());
    }

    #[test]
    fn shift_vars_offsets() {
        let e = IndexExpr::var(0).add(IndexExpr::var(2));
        let s = e.shift_vars(3);
        assert_eq!(s.max_var(), Some(5));
        assert_eq!(s.eval(&[0, 0, 0, 1, 0, 10]), 11);
    }

    #[test]
    #[should_panic(expected = "positive divisor")]
    fn floor_div_nonpositive_panics() {
        IndexExpr::var(0).floor_div(0);
    }

    #[test]
    fn interval_negative_stride_orders_min_max() {
        // e = -3*v0 + 5 over v0 in [0, 9]: min at v0=9, max at v0=0.
        let e = IndexExpr::var(0).mul(-3).add(IndexExpr::constant(5));
        assert_eq!(e.interval(&[(0, 9)]), (-22, 5));
        // Pure negative stride: -2*v0 over [1, 4].
        let n = IndexExpr::var(0).mul(-2);
        assert_eq!(n.interval(&[(1, 4)]), (-8, -2));
        // Subtraction flips the operand interval: v0 - v1 over boxes.
        let s = IndexExpr::Sub(Box::new(IndexExpr::var(0)), Box::new(IndexExpr::var(1)));
        assert_eq!(s.interval(&[(0, 3), (2, 5)]), (-5, 1));
    }

    #[test]
    fn interval_saturates_instead_of_overflowing() {
        // Mul is built raw (the fluent builder would constant-fold).
        let big = IndexExpr::Mul(Box::new(IndexExpr::Var(0)), i64::MAX);
        assert_eq!(big.interval(&[(2, 4)]), (i64::MAX, i64::MAX));
        let neg = IndexExpr::Mul(Box::new(IndexExpr::Var(0)), i64::MIN);
        assert_eq!(neg.interval(&[(1, 2)]), (i64::MIN, i64::MIN));
        // Saturated sums stay pinned rather than wrapping back in-bounds.
        let sum = IndexExpr::Add(Box::new(big.clone()), Box::new(big));
        assert_eq!(sum.interval(&[(1, 1)]), (i64::MAX, i64::MAX));
        let diff = IndexExpr::Sub(
            Box::new(IndexExpr::Const(i64::MIN)),
            Box::new(IndexExpr::Const(i64::MAX)),
        );
        assert_eq!(diff.interval(&[]), (i64::MIN, i64::MIN));
    }

    /// Shrinking descends into subexpressions, so counterexamples end up
    /// as the smallest tree that still exhibits the failure.
    impl Shrink for IndexExpr {
        fn shrink_candidates(&self) -> Vec<Self> {
            match self {
                IndexExpr::Const(0) => Vec::new(),
                IndexExpr::Const(c) => c
                    .shrink_candidates()
                    .into_iter()
                    .map(IndexExpr::Const)
                    .collect(),
                IndexExpr::Var(_) => vec![IndexExpr::Const(0)],
                IndexExpr::Add(a, b) | IndexExpr::Sub(a, b) => {
                    vec![(**a).clone(), (**b).clone()]
                }
                IndexExpr::Mul(a, _) | IndexExpr::FloorDiv(a, _) | IndexExpr::Mod(a, _) => {
                    vec![(**a).clone()]
                }
            }
        }
    }

    /// Random expression tree over `v0..v2`, depth-bounded, covering the
    /// full quasi-affine grammar (including div/mod).
    fn gen_expr(rng: &mut Rng, depth: usize) -> IndexExpr {
        if depth == 0 || rng.chance(0.3) {
            return if rng.chance(0.5) {
                IndexExpr::Var(rng.usize_in(0..3))
            } else {
                IndexExpr::Const(rng.i64_in(-8..8))
            };
        }
        match rng.below(5) {
            0 => IndexExpr::Add(
                Box::new(gen_expr(rng, depth - 1)),
                Box::new(gen_expr(rng, depth - 1)),
            ),
            1 => IndexExpr::Sub(
                Box::new(gen_expr(rng, depth - 1)),
                Box::new(gen_expr(rng, depth - 1)),
            ),
            2 => IndexExpr::Mul(Box::new(gen_expr(rng, depth - 1)), rng.i64_in(-4..4)),
            3 => IndexExpr::FloorDiv(Box::new(gen_expr(rng, depth - 1)), rng.i64_in(1..5)),
            _ => IndexExpr::Mod(Box::new(gen_expr(rng, depth - 1)), rng.i64_in(1..5)),
        }
    }

    forall!(
        simplify_preserves_semantics,
        Config::with_cases(256),
        |rng| (
            gen_expr(rng, 3),
            rng.i64_in(-9..9),
            rng.i64_in(-9..9),
            rng.i64_in(-9..9),
        ),
        |(e, v0, v1, v2)| {
            let vars = [*v0, *v1, *v2];
            tk_assert_eq!(e.simplified().eval(&vars), e.eval(&vars), "expr {e}");
            Ok(())
        }
    );

    #[test]
    fn bounded_delinearization_becomes_affine() {
        // reshape [64, 64] -> [64, 4, 16]: row (64·v0 + 16·v1 + v2) / 64 and
        // column (..) mod 64, with v1 < 4 and v2 < 16.
        let flat = IndexExpr::var(0)
            .mul(64)
            .add(IndexExpr::var(1).mul(16))
            .add(IndexExpr::var(2));
        let bounds = [(0, 63), (0, 3), (0, 15)];
        let row = flat.clone().floor_div(64).simplified_within(&bounds);
        let col = flat.modulo(64).simplified_within(&bounds);
        assert_eq!(row, IndexExpr::var(0));
        assert_eq!(col, IndexExpr::var(1).mul(16).add(IndexExpr::var(2)));
    }

    #[test]
    fn nested_div_mod_reduce_through_atoms() {
        // The post-fusion attention projection reads
        // [((64·v0 + v2) / 16) mod 4, (64·v0 + v2) / 64, (64·v0 + v2) mod 16]
        // with v2 < 64: the first index only keeps its v2 / 16 atom.
        let flat = IndexExpr::var(0).mul(64).add(IndexExpr::var(2));
        let bounds = [(0, 63), (0, 63), (0, 63)];
        let head = flat.clone().floor_div(16).modulo(4);
        let row = flat.clone().floor_div(64);
        let lane = flat.modulo(16);
        let v2 = IndexExpr::var(2);
        assert_eq!(head.simplified_within(&bounds), v2.clone().floor_div(16));
        assert_eq!(row.simplified_within(&bounds), IndexExpr::var(0));
        assert_eq!(lane.simplified_within(&bounds), v2.modulo(16));
    }

    forall!(
        simplified_within_agrees_with_eval_on_its_box,
        Config::with_cases(256),
        |rng| (
            gen_expr(rng, 4),
            rng.vec(3..4, |r| (r.i64_in(-6..6), r.i64_in(0..5))),
        ),
        |(e, box_spec)| {
            if box_spec.len() != 3 {
                return Ok(()); // shrunk-out-of-domain candidate
            }
            let bounds: Vec<(i64, i64)> = box_spec.iter().map(|&(lo, w)| (lo, lo + w)).collect();
            let s = e.simplified_within(&bounds);
            for v0 in bounds[0].0..=bounds[0].1 {
                for v1 in bounds[1].0..=bounds[1].1 {
                    for v2 in bounds[2].0..=bounds[2].1 {
                        let vars = [v0, v1, v2];
                        tk_assert_eq!(s.eval(&vars), e.eval(&vars), "expr {e} -> {s} at {vars:?}");
                    }
                }
            }
            Ok(())
        }
    );

    forall!(
        substitution_is_composition,
        Config::with_cases(256),
        |rng| (gen_expr(rng, 3), rng.i64_in(-9..9)),
        |(e, v)| {
            // substituting constants == evaluating
            let subs = [
                IndexExpr::constant(*v),
                IndexExpr::constant(*v + 1),
                IndexExpr::constant(*v - 1),
            ];
            let sub = e.substitute(&subs);
            tk_assert_eq!(sub.eval(&[]), e.eval(&[*v, *v + 1, *v - 1]), "expr {e}");
            Ok(())
        }
    );

    forall!(
        as_linear_agrees_with_eval,
        Config::with_cases(128),
        |rng| (
            rng.vec(3..4, |r| r.i64_in(-5..5)),
            rng.i64_in(-10..10),
            rng.vec(3..4, |r| r.i64_in(-9..9)),
        ),
        |(coeffs, c, vars)| {
            if coeffs.len() != 3 || vars.len() != 3 {
                return Ok(()); // shrunk-out-of-domain candidate
            }
            let e = IndexExpr::from_linear(coeffs, *c);
            let (got_coeffs, got_c) = e.as_linear(3).unwrap();
            tk_assert_eq!(&got_coeffs, coeffs);
            tk_assert_eq!(got_c, *c);
            let expected: i64 = coeffs.iter().zip(vars).map(|(a, b)| a * b).sum::<i64>() + c;
            tk_assert_eq!(e.eval(vars), expected);
            Ok(())
        }
    );
}
