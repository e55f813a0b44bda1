//! Scalar expression bodies of tensor expressions.

use crate::te::ReduceOp;
use souffle_affine::IndexExpr;
use std::fmt;

/// Unary scalar operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// Arithmetic negation.
    Neg,
    /// Natural exponential.
    Exp,
    /// Natural logarithm.
    Log,
    /// Square root.
    Sqrt,
    /// Reciprocal square root.
    Rsqrt,
    /// Reciprocal.
    Recip,
    /// Logistic sigmoid `1 / (1 + e^-x)`.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Rectified linear unit `max(x, 0)`.
    Relu,
    /// Absolute value.
    Abs,
    /// GELU (tanh approximation), used by BERT/Swin FFNs.
    Gelu,
    /// Sigmoid-weighted linear unit `x * sigmoid(x)` (EfficientNet's swish).
    Silu,
    /// Unit step function (0 for x < 0, 1 otherwise) — the derivative of
    /// ReLU, used by the training extension.
    Heaviside,
    /// Sign function (-1, 0, 1) — the derivative of `Abs`.
    Sign,
}

impl UnaryOp {
    /// Applies the operation to a scalar.
    pub fn apply(self, x: f32) -> f32 {
        match self {
            UnaryOp::Neg => -x,
            UnaryOp::Exp => x.exp(),
            UnaryOp::Log => x.ln(),
            UnaryOp::Sqrt => x.sqrt(),
            UnaryOp::Rsqrt => 1.0 / x.sqrt(),
            UnaryOp::Recip => 1.0 / x,
            UnaryOp::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            UnaryOp::Tanh => x.tanh(),
            UnaryOp::Relu => x.max(0.0),
            UnaryOp::Abs => x.abs(),
            UnaryOp::Gelu => {
                const C: f32 = 0.797_884_6; // sqrt(2/pi)
                0.5 * x * (1.0 + (C * (x + 0.044715 * x * x * x)).tanh())
            }
            UnaryOp::Silu => x / (1.0 + (-x).exp()),
            UnaryOp::Heaviside => {
                if x < 0.0 {
                    0.0
                } else {
                    1.0
                }
            }
            UnaryOp::Sign => {
                if x > 0.0 {
                    1.0
                } else if x < 0.0 {
                    -1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// Number of arithmetic instructions the cost model charges.
    pub fn cost(self) -> u64 {
        match self {
            UnaryOp::Neg | UnaryOp::Abs | UnaryOp::Relu | UnaryOp::Heaviside | UnaryOp::Sign => 1,
            UnaryOp::Sqrt | UnaryOp::Rsqrt | UnaryOp::Recip => 2,
            UnaryOp::Exp | UnaryOp::Log | UnaryOp::Tanh => 4,
            UnaryOp::Sigmoid | UnaryOp::Silu => 5,
            UnaryOp::Gelu => 8,
        }
    }
}

/// Binary scalar operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Elementwise maximum.
    Max,
    /// Elementwise minimum.
    Min,
}

impl BinaryOp {
    /// Applies the operation to two scalars.
    pub fn apply(self, a: f32, b: f32) -> f32 {
        match self {
            BinaryOp::Add => a + b,
            BinaryOp::Sub => a - b,
            BinaryOp::Mul => a * b,
            BinaryOp::Div => a / b,
            BinaryOp::Max => a.max(b),
            BinaryOp::Min => a.min(b),
        }
    }

    /// Number of arithmetic instructions the cost model charges.
    pub fn cost(self) -> u64 {
        match self {
            BinaryOp::Div => 4,
            _ => 1,
        }
    }
}

/// Integer comparison predicates over index expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

impl CmpOp {
    /// Evaluates the predicate.
    pub fn apply(self, a: i64, b: i64) -> bool {
        match self {
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
        };
        f.write_str(s)
    }
}

/// A boolean condition over the iteration space, used for the
/// `tir.if_then_else` predicates the paper inserts during horizontal
/// transformation (Fig. 3) and for boundary guards (e.g. padding).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Comparison of two index expressions.
    Cmp(CmpOp, IndexExpr, IndexExpr),
    /// Conjunction.
    And(Box<Cond>, Box<Cond>),
    /// Disjunction.
    Or(Box<Cond>, Box<Cond>),
    /// Negation.
    Not(Box<Cond>),
}

impl Cond {
    /// `lhs op rhs` shorthand.
    pub fn cmp(op: CmpOp, lhs: IndexExpr, rhs: IndexExpr) -> Self {
        Cond::Cmp(op, lhs, rhs)
    }

    /// `self && rhs`.
    pub fn and(self, rhs: Cond) -> Self {
        Cond::And(Box::new(self), Box::new(rhs))
    }

    /// `self || rhs`.
    pub fn or(self, rhs: Cond) -> Self {
        Cond::Or(Box::new(self), Box::new(rhs))
    }

    /// Evaluates the condition at a point of the iteration space.
    pub fn eval(&self, vars: &[i64]) -> bool {
        match self {
            Cond::Cmp(op, a, b) => op.apply(a.eval(vars), b.eval(vars)),
            Cond::And(a, b) => a.eval(vars) && b.eval(vars),
            Cond::Or(a, b) => a.eval(vars) || b.eval(vars),
            Cond::Not(a) => !a.eval(vars),
        }
    }

    /// Substitutes index expressions for variables in every comparison.
    pub fn substitute(&self, subs: &[IndexExpr]) -> Cond {
        match self {
            Cond::Cmp(op, a, b) => Cond::Cmp(*op, a.substitute(subs), b.substitute(subs)),
            Cond::And(a, b) => {
                Cond::And(Box::new(a.substitute(subs)), Box::new(b.substitute(subs)))
            }
            Cond::Or(a, b) => Cond::Or(Box::new(a.substitute(subs)), Box::new(b.substitute(subs))),
            Cond::Not(a) => Cond::Not(Box::new(a.substitute(subs))),
        }
    }

    /// Largest variable index referenced, or `None`.
    pub fn max_var(&self) -> Option<usize> {
        match self {
            Cond::Cmp(_, a, b) => a.max_var().max(b.max_var()),
            Cond::And(a, b) | Cond::Or(a, b) => a.max_var().max(b.max_var()),
            Cond::Not(a) => a.max_var(),
        }
    }

    /// Calls `f` for every variable occurrence in the condition.
    pub fn for_each_var(&self, f: &mut dyn FnMut(usize)) {
        match self {
            Cond::Cmp(_, a, b) => {
                a.for_each_var(f);
                b.for_each_var(f);
            }
            Cond::And(a, b) | Cond::Or(a, b) => {
                a.for_each_var(f);
                b.for_each_var(f);
            }
            Cond::Not(a) => a.for_each_var(f),
        }
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cond::Cmp(op, a, b) => write!(f, "{a} {op} {b}"),
            Cond::And(a, b) => write!(f, "({a} && {b})"),
            Cond::Or(a, b) => write!(f, "({a} || {b})"),
            Cond::Not(a) => write!(f, "!({a})"),
        }
    }
}

/// The scalar body of a tensor expression.
///
/// Variables referenced by embedded [`IndexExpr`]s follow the TE convention:
/// variables `0..output_rank` are iteration variables, variables
/// `output_rank..output_rank + reduce_rank` are reduction variables.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarExpr {
    /// A floating-point constant.
    Const(f32),
    /// Read of operand `operand` (position in the TE's input list) at the
    /// given index expressions.
    Input {
        /// Position in the TE's input tensor list.
        operand: usize,
        /// One index expression per dimension of the operand.
        indices: Vec<IndexExpr>,
    },
    /// The current value of an iteration/reduction variable, cast to f32
    /// (used by positional encodings and masks).
    IndexValue(IndexExpr),
    /// Unary operation.
    Unary(UnaryOp, Box<ScalarExpr>),
    /// Binary operation.
    Binary(BinaryOp, Box<ScalarExpr>, Box<ScalarExpr>),
    /// `if cond then on_true else on_false` — evaluated lazily so that the
    /// untaken branch may contain out-of-bounds accesses (padding).
    Select {
        /// Index-space predicate.
        cond: Cond,
        /// Value when the predicate holds.
        on_true: Box<ScalarExpr>,
        /// Value otherwise.
        on_false: Box<ScalarExpr>,
    },
    /// A scoped inline reduction: the fold of `body` under `op` with `var`
    /// ranging over `0..extent`. Produced by reduction fusion
    /// (tiling-with-recomputation): the consumer's body recomputes the
    /// per-slice reduced scalar inline so the intermediate tensor never hits
    /// memory. `var` is a *binder* — it is allocated above the enclosing
    /// TE's free variables (`rank + reduce.len() + nesting depth`) and is
    /// only in scope inside `body`; combine order is ascending `var`, which
    /// matches the reduction odometer of a standalone reduction TE, keeping
    /// fusion bit-exact per element.
    Reduce {
        /// Fold combinator.
        op: ReduceOp,
        /// Index of the bound variable.
        var: usize,
        /// Trip count (the bound variable ranges over `0..extent`).
        extent: i64,
        /// The folded scalar body.
        body: Box<ScalarExpr>,
    },
}

impl ScalarExpr {
    /// Shorthand: read operand `operand` at `indices`.
    pub fn input(operand: usize, indices: Vec<IndexExpr>) -> Self {
        ScalarExpr::Input { operand, indices }
    }

    /// Shorthand for a unary application.
    pub fn unary(op: UnaryOp, inner: ScalarExpr) -> Self {
        ScalarExpr::Unary(op, Box::new(inner))
    }

    /// Shorthand for a binary application.
    pub fn binary(op: BinaryOp, lhs: ScalarExpr, rhs: ScalarExpr) -> Self {
        ScalarExpr::Binary(op, Box::new(lhs), Box::new(rhs))
    }

    /// Shorthand for a select.
    pub fn select(cond: Cond, on_true: ScalarExpr, on_false: ScalarExpr) -> Self {
        ScalarExpr::Select {
            cond,
            on_true: Box::new(on_true),
            on_false: Box::new(on_false),
        }
    }

    /// Shorthand for a scoped inline reduction.
    pub fn fold(op: ReduceOp, var: usize, extent: i64, body: ScalarExpr) -> Self {
        ScalarExpr::Reduce {
            op,
            var,
            extent,
            body: Box::new(body),
        }
    }

    /// Largest index variable referenced anywhere in the body, including
    /// fold binders. Substitutions sized from this value cover every
    /// variable position.
    pub fn max_var(&self) -> Option<usize> {
        match self {
            ScalarExpr::Const(_) => None,
            ScalarExpr::Input { indices, .. } => {
                indices.iter().filter_map(IndexExpr::max_var).max()
            }
            ScalarExpr::IndexValue(e) => e.max_var(),
            ScalarExpr::Unary(_, a) => a.max_var(),
            ScalarExpr::Binary(_, a, b) => a.max_var().max(b.max_var()),
            ScalarExpr::Select {
                cond,
                on_true,
                on_false,
            } => cond
                .max_var()
                .max(on_true.max_var())
                .max(on_false.max_var()),
            ScalarExpr::Reduce { var, body, .. } => Some(*var).max(body.max_var()),
        }
    }

    /// Largest *free* index variable referenced — like [`max_var`] but
    /// excluding fold binders and variables only used under their scope.
    /// This is what well-formedness checks compare against the TE's
    /// `rank + reduce.len()` variable budget.
    ///
    /// [`max_var`]: ScalarExpr::max_var
    pub fn max_free_var(&self) -> Option<usize> {
        let mut max = None;
        let mut bound = Vec::new();
        self.walk_free_vars(&mut |v| max = max.max(Some(v)), &mut bound);
        max
    }

    /// The set of free variables referenced in the body (sorted, deduped);
    /// fold binders and their scoped uses are excluded.
    pub fn free_vars(&self) -> Vec<usize> {
        let mut vars = Vec::new();
        let mut bound = Vec::new();
        self.walk_free_vars(
            &mut |v| {
                if !vars.contains(&v) {
                    vars.push(v);
                }
            },
            &mut bound,
        );
        vars.sort_unstable();
        vars
    }

    fn walk_free_vars(&self, f: &mut dyn FnMut(usize), bound: &mut Vec<usize>) {
        let on_var = |bound: &[usize], f: &mut dyn FnMut(usize), v: usize| {
            if !bound.contains(&v) {
                f(v);
            }
        };
        match self {
            ScalarExpr::Const(_) => {}
            ScalarExpr::Input { indices, .. } => {
                for e in indices {
                    e.for_each_var(&mut |v| on_var(bound, f, v));
                }
            }
            ScalarExpr::IndexValue(e) => e.for_each_var(&mut |v| on_var(bound, f, v)),
            ScalarExpr::Unary(_, a) => a.walk_free_vars(f, bound),
            ScalarExpr::Binary(_, a, b) => {
                a.walk_free_vars(f, bound);
                b.walk_free_vars(f, bound);
            }
            ScalarExpr::Select {
                cond,
                on_true,
                on_false,
            } => {
                cond.for_each_var(&mut |v| on_var(bound, f, v));
                on_true.walk_free_vars(f, bound);
                on_false.walk_free_vars(f, bound);
            }
            ScalarExpr::Reduce { var, body, .. } => {
                bound.push(*var);
                body.walk_free_vars(f, bound);
                bound.pop();
            }
        }
    }

    /// All fold binders in the body as `(var, extent)` pairs, outermost
    /// first. Empty for bodies without inline reductions.
    pub fn collect_folds(&self) -> Vec<(usize, i64)> {
        let mut out = Vec::new();
        self.walk_folds(&mut out);
        out
    }

    fn walk_folds(&self, out: &mut Vec<(usize, i64)>) {
        match self {
            ScalarExpr::Const(_) | ScalarExpr::Input { .. } | ScalarExpr::IndexValue(_) => {}
            ScalarExpr::Unary(_, a) => a.walk_folds(out),
            ScalarExpr::Binary(_, a, b) => {
                a.walk_folds(out);
                b.walk_folds(out);
            }
            ScalarExpr::Select {
                on_true, on_false, ..
            } => {
                on_true.walk_folds(out);
                on_false.walk_folds(out);
            }
            ScalarExpr::Reduce {
                var, extent, body, ..
            } => {
                out.push((*var, *extent));
                body.walk_folds(out);
            }
        }
    }

    /// Whether the body contains an inline reduction.
    pub fn has_fold(&self) -> bool {
        match self {
            ScalarExpr::Const(_) | ScalarExpr::Input { .. } | ScalarExpr::IndexValue(_) => false,
            ScalarExpr::Unary(_, a) => a.has_fold(),
            ScalarExpr::Binary(_, a, b) => a.has_fold() || b.has_fold(),
            ScalarExpr::Select {
                on_true, on_false, ..
            } => on_true.has_fold() || on_false.has_fold(),
            ScalarExpr::Reduce { .. } => true,
        }
    }

    /// All `(operand, indices)` accesses in the body, in evaluation order.
    pub fn accesses(&self) -> Vec<(usize, &[IndexExpr])> {
        let mut out = Vec::new();
        self.collect_accesses(&mut out);
        out
    }

    fn collect_accesses<'a>(&'a self, out: &mut Vec<(usize, &'a [IndexExpr])>) {
        match self {
            ScalarExpr::Const(_) | ScalarExpr::IndexValue(_) => {}
            ScalarExpr::Input { operand, indices } => out.push((*operand, indices)),
            ScalarExpr::Unary(_, a) => a.collect_accesses(out),
            ScalarExpr::Binary(_, a, b) => {
                a.collect_accesses(out);
                b.collect_accesses(out);
            }
            ScalarExpr::Select {
                on_true, on_false, ..
            } => {
                on_true.collect_accesses(out);
                on_false.collect_accesses(out);
            }
            ScalarExpr::Reduce { body, .. } => body.collect_accesses(out),
        }
    }

    /// Number of arithmetic instructions one evaluation of the body costs
    /// (the numerator of the paper's compute/memory ratio, §5.3).
    pub fn arith_cost(&self) -> u64 {
        match self {
            ScalarExpr::Const(_) | ScalarExpr::Input { .. } | ScalarExpr::IndexValue(_) => 0,
            ScalarExpr::Unary(op, a) => op.cost() + a.arith_cost(),
            ScalarExpr::Binary(op, a, b) => op.cost() + a.arith_cost() + b.arith_cost(),
            ScalarExpr::Select {
                on_true, on_false, ..
            } => 1 + on_true.arith_cost().max(on_false.arith_cost()),
            // One combine per trip on top of the body.
            ScalarExpr::Reduce { extent, body, .. } => {
                (*extent).max(0) as u64 * (body.arith_cost() + 1)
            }
        }
    }

    /// Arithmetic split into `(per_point, per_slice)` instruction counts:
    /// the cost of one body evaluation with every inline fold treated as a
    /// cached read, and the cost of evaluating each fold once. Reduction
    /// fusion only inlines folds that are invariant along the innermost
    /// output axis, and the VM (like a tiled kernel) computes every fold —
    /// nested ones included — once per innermost slice and reuses it, so
    /// fold arithmetic amortizes over the innermost extent rather than
    /// recurring per point. For fold-free bodies this is
    /// `(arith_cost(), 0)`.
    pub fn arith_cost_split(&self) -> (u64, u64) {
        match self {
            ScalarExpr::Const(_) | ScalarExpr::Input { .. } | ScalarExpr::IndexValue(_) => (0, 0),
            ScalarExpr::Unary(op, a) => {
                let (p, s) = a.arith_cost_split();
                (op.cost() + p, s)
            }
            ScalarExpr::Binary(op, a, b) => {
                let (pa, sa) = a.arith_cost_split();
                let (pb, sb) = b.arith_cost_split();
                (op.cost() + pa + pb, sa + sb)
            }
            ScalarExpr::Select {
                on_true, on_false, ..
            } => {
                let (pt, st) = on_true.arith_cost_split();
                let (pf, sf) = on_false.arith_cost_split();
                (1 + pt.max(pf), st + sf)
            }
            // The fold itself is slice-cost; its body's own nested folds
            // are also cached per slice, so they count once, not once per
            // trip.
            ScalarExpr::Reduce { extent, body, .. } => {
                let (pb, sb) = body.arith_cost_split();
                (0, (*extent).max(0) as u64 * (pb + 1) + sb)
            }
        }
    }

    /// Number of input-tensor reads one evaluation of the body performs
    /// (the denominator of the compute/memory ratio, together with the
    /// output write).
    pub fn access_cost(&self) -> u64 {
        match self {
            ScalarExpr::Const(_) | ScalarExpr::IndexValue(_) => 0,
            ScalarExpr::Input { .. } => 1,
            ScalarExpr::Unary(_, a) => a.arith_cost_accesses(),
            ScalarExpr::Binary(_, a, b) => a.arith_cost_accesses() + b.arith_cost_accesses(),
            ScalarExpr::Select {
                on_true, on_false, ..
            } => on_true
                .arith_cost_accesses()
                .max(on_false.arith_cost_accesses()),
            ScalarExpr::Reduce { extent, body, .. } => {
                (*extent).max(0) as u64 * body.arith_cost_accesses()
            }
        }
    }

    fn arith_cost_accesses(&self) -> u64 {
        self.access_cost()
    }

    /// Rewrites every variable through `subs` (composition with an index
    /// map), and remaps operand slots through `operand_map`.
    ///
    /// # Panics
    ///
    /// Panics if an operand slot is missing from `operand_map`.
    pub fn substitute(
        &self,
        subs: &[IndexExpr],
        operand_map: &dyn Fn(usize) -> usize,
    ) -> ScalarExpr {
        match self {
            ScalarExpr::Const(c) => ScalarExpr::Const(*c),
            ScalarExpr::Input { operand, indices } => ScalarExpr::Input {
                operand: operand_map(*operand),
                indices: indices.iter().map(|e| e.substitute(subs)).collect(),
            },
            ScalarExpr::IndexValue(e) => ScalarExpr::IndexValue(e.substitute(subs)),
            ScalarExpr::Unary(op, a) => {
                ScalarExpr::Unary(*op, Box::new(a.substitute(subs, operand_map)))
            }
            ScalarExpr::Binary(op, a, b) => ScalarExpr::Binary(
                *op,
                Box::new(a.substitute(subs, operand_map)),
                Box::new(b.substitute(subs, operand_map)),
            ),
            ScalarExpr::Select {
                cond,
                on_true,
                on_false,
            } => ScalarExpr::Select {
                cond: cond.substitute(subs),
                on_true: Box::new(on_true.substitute(subs, operand_map)),
                on_false: Box::new(on_false.substitute(subs, operand_map)),
            },
            ScalarExpr::Reduce {
                op,
                var,
                extent,
                body,
            } => {
                // A fold binder lives above the enclosing TE's free
                // variables, so substitutions sized to the free-variable
                // budget are extended with identities through the binder.
                // Wider substitutions (e.g. the +1 shift of batching, sized
                // by `max_var`) may rename the binder, but only to another
                // plain variable — folds have no index image to compose.
                let mut subs2: Vec<IndexExpr> = subs.to_vec();
                for i in subs2.len()..=*var {
                    subs2.push(IndexExpr::Var(i));
                }
                let new_var = match &subs2[*var] {
                    IndexExpr::Var(v) => *v,
                    other => panic!("fold binder v{var} must map to a variable, got {other}"),
                };
                ScalarExpr::Reduce {
                    op: *op,
                    var: new_var,
                    extent: *extent,
                    body: Box::new(body.substitute(&subs2, operand_map)),
                }
            }
        }
    }

    /// Replaces, in place, every read of an operand `o` for which
    /// `replacement(o)` is `Some(body)` with `body`, whose variables are
    /// first substituted with the access's index expressions. Other reads
    /// are kept. This is the inlining step of vertical transformation
    /// (§6.2); one walk inlines any number of producers.
    pub fn inline_operands<'r>(&mut self, replacement: &dyn Fn(usize) -> Option<&'r ScalarExpr>) {
        match self {
            ScalarExpr::Const(_) | ScalarExpr::IndexValue(_) => {}
            ScalarExpr::Input { operand, indices } => {
                // The replacement body's variables are the producer's
                // iteration variables; the access's index expressions say
                // how to compute them from the consumer's variables.
                if let Some(body) = replacement(*operand) {
                    *self = body.substitute(indices, &|op| op);
                }
            }
            ScalarExpr::Unary(_, a) | ScalarExpr::Reduce { body: a, .. } => {
                a.inline_operands(replacement)
            }
            ScalarExpr::Binary(_, a, b)
            | ScalarExpr::Select {
                on_true: a,
                on_false: b,
                ..
            } => {
                a.inline_operands(replacement);
                b.inline_operands(replacement);
            }
        }
    }

    /// Remaps operand slots in place without touching index variables.
    pub fn remap_operands(&mut self, f: &dyn Fn(usize) -> usize) {
        match self {
            ScalarExpr::Const(_) | ScalarExpr::IndexValue(_) => {}
            ScalarExpr::Input { operand, .. } => *operand = f(*operand),
            ScalarExpr::Unary(_, a) | ScalarExpr::Reduce { body: a, .. } => a.remap_operands(f),
            ScalarExpr::Binary(_, a, b)
            | ScalarExpr::Select {
                on_true: a,
                on_false: b,
                ..
            } => {
                a.remap_operands(f);
                b.remap_operands(f);
            }
        }
    }

    /// Algebraic simplification, in place: constant folding,
    /// additive/multiplicative identities, and elimination of statically
    /// decidable selects. Applied after vertical inlining (§6.2), where
    /// composed bodies accumulate `x + 0`-style residue and guards whose
    /// predicates became constant under index substitution.
    pub fn simplify(&mut self) {
        // What a binary node reduces to once its operands are simplified.
        enum Keep {
            Folded(f32),
            Lhs,
            Rhs,
            Both,
        }
        match self {
            ScalarExpr::Const(_) | ScalarExpr::Input { .. } => {}
            ScalarExpr::IndexValue(e) => {
                if let IndexExpr::Const(c) = e {
                    *self = ScalarExpr::Const(*c as f32);
                }
            }
            ScalarExpr::Unary(op, a) => {
                a.simplify();
                if let ScalarExpr::Const(c) = **a {
                    *self = ScalarExpr::Const(op.apply(c));
                }
            }
            ScalarExpr::Binary(op, a, b) => {
                a.simplify();
                b.simplify();
                let keep = match (*op, &**a, &**b) {
                    (_, ScalarExpr::Const(x), ScalarExpr::Const(y)) => {
                        Keep::Folded(op.apply(*x, *y))
                    }
                    (BinaryOp::Add, ScalarExpr::Const(z), _) if *z == 0.0 => Keep::Rhs,
                    (BinaryOp::Add, _, ScalarExpr::Const(z)) if *z == 0.0 => Keep::Lhs,
                    (BinaryOp::Sub, _, ScalarExpr::Const(z)) if *z == 0.0 => Keep::Lhs,
                    (BinaryOp::Mul, ScalarExpr::Const(o), _) if *o == 1.0 => Keep::Rhs,
                    (BinaryOp::Mul, _, ScalarExpr::Const(o)) if *o == 1.0 => Keep::Lhs,
                    (BinaryOp::Div, _, ScalarExpr::Const(o)) if *o == 1.0 => Keep::Lhs,
                    _ => Keep::Both,
                };
                match keep {
                    Keep::Folded(c) => *self = ScalarExpr::Const(c),
                    Keep::Lhs => *self = std::mem::replace(&mut **a, ScalarExpr::Const(0.0)),
                    Keep::Rhs => *self = std::mem::replace(&mut **b, ScalarExpr::Const(0.0)),
                    Keep::Both => {}
                }
            }
            ScalarExpr::Select {
                cond,
                on_true,
                on_false,
            } => {
                // A predicate over no variables is a constant.
                if cond.max_var().is_none() {
                    let taken = if cond.eval(&[]) { on_true } else { on_false };
                    let mut taken = std::mem::replace(&mut **taken, ScalarExpr::Const(0.0));
                    taken.simplify();
                    *self = taken;
                } else {
                    on_true.simplify();
                    on_false.simplify();
                }
            }
            // Folds only simplify their body: collapsing the fold itself
            // (e.g. Sum of a constant) would change float rounding.
            ScalarExpr::Reduce { body, .. } => body.simplify(),
        }
    }
}

impl fmt::Display for ScalarExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarExpr::Const(c) => write!(f, "{c}"),
            ScalarExpr::Input { operand, indices } => {
                write!(f, "in{operand}[")?;
                for (i, e) in indices.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "]")
            }
            ScalarExpr::IndexValue(e) => write!(f, "idx({e})"),
            ScalarExpr::Unary(op, a) => write!(f, "{op:?}({a})"),
            ScalarExpr::Binary(op, a, b) => write!(f, "{op:?}({a}, {b})"),
            ScalarExpr::Select {
                cond,
                on_true,
                on_false,
            } => write!(f, "select({cond}, {on_true}, {on_false})"),
            ScalarExpr::Reduce {
                op,
                var,
                extent,
                body,
            } => write!(f, "fold_{op:?}(v{var} < {extent}, {body})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unary_apply_matches_reference() {
        assert_eq!(UnaryOp::Relu.apply(-2.0), 0.0);
        assert_eq!(UnaryOp::Relu.apply(3.0), 3.0);
        assert!((UnaryOp::Sigmoid.apply(0.0) - 0.5).abs() < 1e-6);
        assert!((UnaryOp::Silu.apply(0.0)).abs() < 1e-6);
        assert!((UnaryOp::Gelu.apply(0.0)).abs() < 1e-6);
        assert!((UnaryOp::Exp.apply(1.0) - std::f32::consts::E).abs() < 1e-5);
    }

    #[test]
    fn binary_apply() {
        assert_eq!(BinaryOp::Max.apply(2.0, 5.0), 5.0);
        assert_eq!(BinaryOp::Div.apply(1.0, 4.0), 0.25);
    }

    #[test]
    fn cond_eval_and_substitute() {
        let c = Cond::cmp(CmpOp::Lt, IndexExpr::var(0), IndexExpr::constant(4)).and(Cond::cmp(
            CmpOp::Ge,
            IndexExpr::var(1),
            IndexExpr::constant(0),
        ));
        assert!(c.eval(&[3, 0]));
        assert!(!c.eval(&[4, 0]));
        let s = c.substitute(&[IndexExpr::var(0).mul(2), IndexExpr::var(0)]);
        assert!(s.eval(&[1]));
        assert!(!s.eval(&[2]));
    }

    #[test]
    fn accesses_enumerates_inputs() {
        let body = ScalarExpr::binary(
            BinaryOp::Add,
            ScalarExpr::input(0, vec![IndexExpr::var(0)]),
            ScalarExpr::input(1, vec![IndexExpr::var(0)]),
        );
        let acc = body.accesses();
        assert_eq!(acc.len(), 2);
        assert_eq!(acc[0].0, 0);
        assert_eq!(acc[1].0, 1);
    }

    #[test]
    fn costs_count_sensibly() {
        // sigmoid(a + b) : 1 add + 5 sigmoid = 6 arith, 2 accesses
        let body = ScalarExpr::unary(
            UnaryOp::Sigmoid,
            ScalarExpr::binary(
                BinaryOp::Add,
                ScalarExpr::input(0, vec![IndexExpr::var(0)]),
                ScalarExpr::input(1, vec![IndexExpr::var(0)]),
            ),
        );
        assert_eq!(body.arith_cost(), 6);
        assert_eq!(body.access_cost(), 2);
    }

    #[test]
    fn inline_operands_substitutes_producer_body() {
        // consumer: out[i] = in0[2*i] ; producer body: in0'[i] = exp(in0[i])
        let consumer = ScalarExpr::input(0, vec![IndexExpr::var(0).mul(2)]);
        let producer =
            ScalarExpr::unary(UnaryOp::Exp, ScalarExpr::input(0, vec![IndexExpr::var(0)]));
        let mut fused = consumer;
        fused.inline_operands(&|o| (o == 0).then_some(&producer));
        // fused should be exp(in0[2*i])
        match &fused {
            ScalarExpr::Unary(UnaryOp::Exp, inner) => match inner.as_ref() {
                ScalarExpr::Input { operand, indices } => {
                    assert_eq!(*operand, 0);
                    assert_eq!(indices[0], IndexExpr::var(0).mul(2));
                }
                other => panic!("unexpected inner {other}"),
            },
            other => panic!("unexpected fused {other}"),
        }
    }

    #[test]
    fn max_var_spans_cond_and_branches() {
        let e = ScalarExpr::select(
            Cond::cmp(CmpOp::Lt, IndexExpr::var(3), IndexExpr::constant(1)),
            ScalarExpr::input(0, vec![IndexExpr::var(1)]),
            ScalarExpr::Const(0.0),
        );
        assert_eq!(e.max_var(), Some(3));
    }

    fn simplified(mut e: ScalarExpr) -> ScalarExpr {
        e.simplify();
        e
    }

    #[test]
    fn simplify_folds_constants_and_identities() {
        // exp(1 + 0) -> const
        let e = ScalarExpr::unary(
            UnaryOp::Exp,
            ScalarExpr::binary(
                BinaryOp::Add,
                ScalarExpr::Const(1.0),
                ScalarExpr::Const(0.0),
            ),
        );
        match simplified(e) {
            ScalarExpr::Const(c) => assert!((c - std::f32::consts::E).abs() < 1e-6),
            other => panic!("expected const, got {other}"),
        }
        // x * 1 -> x ; x + 0 -> x
        let x = ScalarExpr::input(0, vec![IndexExpr::var(0)]);
        let e = ScalarExpr::binary(BinaryOp::Mul, x.clone(), ScalarExpr::Const(1.0));
        assert_eq!(simplified(e), x);
        let e = ScalarExpr::binary(BinaryOp::Add, ScalarExpr::Const(0.0), x.clone());
        assert_eq!(simplified(e), x);
    }

    #[test]
    fn simplify_resolves_constant_selects() {
        let x = ScalarExpr::input(0, vec![IndexExpr::var(0)]);
        let e = ScalarExpr::select(
            Cond::cmp(CmpOp::Lt, IndexExpr::constant(1), IndexExpr::constant(2)),
            x.clone(),
            ScalarExpr::Const(0.0),
        );
        assert_eq!(simplified(e), x);
        let e = ScalarExpr::select(
            Cond::cmp(CmpOp::Gt, IndexExpr::constant(1), IndexExpr::constant(2)),
            x,
            ScalarExpr::Const(0.0),
        );
        assert_eq!(simplified(e), ScalarExpr::Const(0.0));
    }

    #[test]
    fn simplify_keeps_variable_selects() {
        let e = ScalarExpr::select(
            Cond::cmp(CmpOp::Lt, IndexExpr::var(0), IndexExpr::constant(2)),
            ScalarExpr::input(0, vec![IndexExpr::var(0)]),
            ScalarExpr::Const(0.0),
        );
        assert_eq!(simplified(e.clone()), e);
    }

    #[test]
    fn display_is_nonempty() {
        let e = ScalarExpr::unary(UnaryOp::Exp, ScalarExpr::input(0, vec![IndexExpr::var(0)]));
        assert!(e.to_string().contains("Exp"));
    }
}
