//! Symbolic dimensions for dynamic-shape compilation.
//!
//! A [`SymTable`] declares named symbolic dimensions with inclusive bounds
//! (`min..=max`). A [`DynProgram`] is a TE program template whose tensor-axis
//! and reduction extents are [`Dim`]s — either `Fixed` or `Sym` — inferred by
//! probing a concrete builder at a few bindings and diffing the results
//! ([`DynProgram::infer`]). Concretizing a template at a [`SymBinding`]
//! rebuilds the program with every symbolic extent substituted.
//!
//! Extent arithmetic over symbolic dims uses [`DimPoly`], an integer
//! polynomial in the declared symbols; the verifier proves bounds
//! parametrically from the per-axis [`Dim`] annotations.

use crate::program::TeProgram;
use crate::te::TensorExpr;
use souffle_tensor::{Shape, Tensor};
use std::fmt;
use std::sync::Arc;

/// Identifier of a declared symbolic dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SymId(pub usize);

impl fmt::Display for SymId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// One declared symbolic dimension: a name plus inclusive bounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymDecl {
    /// Human-readable dim name (e.g. `seq`).
    pub name: String,
    /// Inclusive lower bound.
    pub min: i64,
    /// Inclusive upper bound.
    pub max: i64,
}

/// Declarations for every symbolic dimension of a dynamic program.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SymTable {
    decls: Vec<SymDecl>,
}

impl SymTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a symbolic dim with inclusive bounds `min..=max`.
    pub fn declare(&mut self, name: &str, min: i64, max: i64) -> SymId {
        assert!(
            1 <= min && min <= max,
            "symbolic dim {name} needs 1 <= min <= max, got {min}..={max}"
        );
        self.decls.push(SymDecl {
            name: name.to_string(),
            min,
            max,
        });
        SymId(self.decls.len() - 1)
    }

    /// Number of declared syms.
    pub fn len(&self) -> usize {
        self.decls.len()
    }

    /// Whether no syms are declared.
    pub fn is_empty(&self) -> bool {
        self.decls.is_empty()
    }

    /// Declaration of one sym.
    pub fn decl(&self, id: SymId) -> &SymDecl {
        &self.decls[id.0]
    }

    /// All declarations, in id order.
    pub fn decls(&self) -> &[SymDecl] {
        &self.decls
    }

    /// Inclusive `(min, max)` bounds of a symbolic dim.
    pub fn bounds(&self, id: SymId) -> (i64, i64) {
        (self.decls[id.0].min, self.decls[id.0].max)
    }

    /// All sym ids, in declaration order.
    pub fn ids(&self) -> impl Iterator<Item = SymId> {
        (0..self.decls.len()).map(SymId)
    }

    /// Binding with every sym at its declared minimum.
    pub fn min_binding(&self) -> SymBinding {
        SymBinding {
            vals: self.decls.iter().map(|d| d.min).collect(),
        }
    }

    /// Binding with every sym at its declared maximum.
    pub fn max_binding(&self) -> SymBinding {
        SymBinding {
            vals: self.decls.iter().map(|d| d.max).collect(),
        }
    }

    /// Validated binding from one value per declared sym, in declaration order.
    pub fn bind(&self, vals: Vec<i64>) -> Result<SymBinding, String> {
        if vals.len() != self.decls.len() {
            return Err(format!(
                "binding has {} values for {} declared syms",
                vals.len(),
                self.decls.len()
            ));
        }
        for (i, (&v, d)) in vals.iter().zip(&self.decls).enumerate() {
            if v < d.min || v > d.max {
                return Err(format!(
                    "sym s{i} ({}) bound to {v}, outside {}..={}",
                    d.name, d.min, d.max
                ));
            }
        }
        Ok(SymBinding { vals })
    }
}

/// A concrete value for every declared symbolic dim.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SymBinding {
    vals: Vec<i64>,
}

impl SymBinding {
    /// Value bound to one sym.
    pub fn get(&self, id: SymId) -> i64 {
        self.vals[id.0]
    }

    /// All bound values, in declaration order.
    pub fn values(&self) -> &[i64] {
        &self.vals
    }

    /// Copy of this binding with one sym rebound (bounds NOT rechecked).
    pub fn with(&self, id: SymId, v: i64) -> SymBinding {
        let mut vals = self.vals.clone();
        vals[id.0] = v;
        SymBinding { vals }
    }
}

/// One tensor-axis or reduction extent: concrete, or equal to a symbolic dim.
///
/// A `Sym` extent is exactly the bound value of the sym (slope 1, offset 0);
/// builders whose extents are affine-but-offset in a sym fall back to
/// [`DynSource::Generator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dim {
    /// A concrete extent.
    Fixed(i64),
    /// The extent equals this sym's bound value.
    Sym(SymId),
}

impl Dim {
    /// Evaluates at a binding.
    pub fn eval(self, binding: &SymBinding) -> i64 {
        match self {
            Dim::Fixed(n) => n,
            Dim::Sym(s) => binding.get(s),
        }
    }

    /// The extent as a polynomial.
    pub fn poly(self) -> DimPoly {
        match self {
            Dim::Fixed(n) => DimPoly::constant(n),
            Dim::Sym(s) => DimPoly::sym(s),
        }
    }

    /// The sym id, if symbolic.
    pub fn as_sym(self) -> Option<SymId> {
        match self {
            Dim::Fixed(_) => None,
            Dim::Sym(s) => Some(s),
        }
    }
}

impl fmt::Display for Dim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dim::Fixed(n) => write!(f, "{n}"),
            Dim::Sym(s) => write!(f, "{s}"),
        }
    }
}

/// Integer polynomial over symbolic dims, normalized as a sorted sum of
/// monomials (`coeff * s_i * s_j * ...`). Closed under `+` and `*`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DimPoly {
    /// Sorted `(monomial, coeff)` pairs; monomials are sorted sym indices
    /// (with multiplicity), coeffs are nonzero. Empty means the zero poly.
    terms: Vec<(Vec<usize>, i64)>,
}

impl DimPoly {
    /// The zero polynomial.
    pub fn zero() -> Self {
        DimPoly { terms: Vec::new() }
    }

    /// The constant polynomial `c`.
    pub fn constant(c: i64) -> Self {
        if c == 0 {
            Self::zero()
        } else {
            DimPoly {
                terms: vec![(Vec::new(), c)],
            }
        }
    }

    /// The polynomial `s`.
    pub fn sym(s: SymId) -> Self {
        DimPoly {
            terms: vec![(vec![s.0], 1)],
        }
    }

    fn normalized(mut terms: Vec<(Vec<usize>, i64)>) -> Self {
        terms.sort_by(|a, b| a.0.cmp(&b.0));
        let mut out: Vec<(Vec<usize>, i64)> = Vec::with_capacity(terms.len());
        for (mono, c) in terms {
            match out.last_mut() {
                Some((m, acc)) if *m == mono => *acc += c,
                _ => out.push((mono, c)),
            }
        }
        out.retain(|(_, c)| *c != 0);
        DimPoly { terms: out }
    }

    /// Sum of two polynomials.
    pub fn add(&self, other: &DimPoly) -> DimPoly {
        let mut terms = self.terms.clone();
        terms.extend(other.terms.iter().cloned());
        Self::normalized(terms)
    }

    /// Product of two polynomials.
    pub fn mul(&self, other: &DimPoly) -> DimPoly {
        let mut terms = Vec::with_capacity(self.terms.len() * other.terms.len());
        for (ma, ca) in &self.terms {
            for (mb, cb) in &other.terms {
                let mut m = ma.clone();
                m.extend(mb.iter().copied());
                m.sort_unstable();
                terms.push((m, ca * cb));
            }
        }
        Self::normalized(terms)
    }

    /// Product with a constant.
    pub fn scale(&self, k: i64) -> DimPoly {
        Self::normalized(self.terms.iter().map(|(m, c)| (m.clone(), c * k)).collect())
    }

    /// Evaluates at a binding.
    pub fn eval(&self, binding: &SymBinding) -> i64 {
        self.terms
            .iter()
            .map(|(m, c)| m.iter().fold(*c, |acc, &s| acc * binding.get(SymId(s))))
            .sum()
    }

    /// Whether the polynomial has no sym terms.
    pub fn is_constant(&self) -> bool {
        self.terms.iter().all(|(m, _)| m.is_empty())
    }

    /// Total degree of the polynomial (0 for constants and zero).
    pub fn degree(&self) -> usize {
        self.terms.iter().map(|(m, _)| m.len()).max().unwrap_or(0)
    }
}

impl fmt::Display for DimPoly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return write!(f, "0");
        }
        for (i, (mono, c)) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            if mono.is_empty() {
                write!(f, "{c}")?;
            } else {
                if *c != 1 {
                    write!(f, "{c}*")?;
                }
                for (j, s) in mono.iter().enumerate() {
                    if j > 0 {
                        write!(f, "*")?;
                    }
                    write!(f, "s{s}")?;
                }
            }
        }
        Ok(())
    }
}

/// A TE program template with symbolic tensor-axis and reduction extents,
/// lowered once and concretizable at any in-bounds [`SymBinding`].
#[derive(Debug, Clone)]
pub struct DynProgram {
    table: SymTable,
    base_binding: SymBinding,
    /// Program built at `base_binding` (every sym at its minimum).
    base: TeProgram,
    /// Per tensor id: one [`Dim`] per axis.
    tensor_dims: Vec<Vec<Dim>>,
    /// Per TE id: one [`Dim`] per `reduce` entry.
    reduce_dims: Vec<Vec<Dim>>,
}

impl DynProgram {
    /// Infers a symbolic template by probing `build` at the all-min binding
    /// and at one-sym-bumped bindings, diffing shapes and reduction extents.
    ///
    /// Succeeds only when the builder is *structurally stable* over the
    /// range: the tensor table (names, dtypes, kinds, rank), the TE list,
    /// and every scalar body are identical across probes, and each varying
    /// extent equals exactly the bound value of one sym. Builders that
    /// change structure with the dim (e.g. an unrolled LSTM) get an `Err`
    /// and should be wrapped as a [`DynSource::Generator`] instead.
    pub fn infer(
        table: SymTable,
        build: &dyn Fn(&SymBinding) -> TeProgram,
    ) -> Result<DynProgram, String> {
        let base_binding = table.min_binding();
        let base = build(&base_binding);
        let mut tensor_dims: Vec<Vec<Dim>> = base
            .tensors()
            .iter()
            .map(|t| t.shape.dims().iter().map(|&d| Dim::Fixed(d)).collect())
            .collect();
        let mut reduce_dims: Vec<Vec<Dim>> = base
            .tes()
            .iter()
            .map(|te| te.reduce.iter().map(|&d| Dim::Fixed(d)).collect())
            .collect();

        let movable: Vec<SymId> = table
            .ids()
            .filter(|&s| table.bounds(s).0 < table.bounds(s).1)
            .collect();
        for &s in &movable {
            let (min, _) = table.bounds(s);
            let probe = build(&base_binding.with(s, min + 1));
            diff_probe(&base, &probe, s, min, &mut tensor_dims, &mut reduce_dims)?;
        }
        if movable.len() > 1 {
            // Separability probe: all movable syms bumped at once must land
            // exactly where the per-sym slopes predict.
            let mut combined = base_binding.clone();
            for &s in &movable {
                combined = combined.with(s, table.bounds(s).0 + 1);
            }
            let dp = DynProgram {
                table: table.clone(),
                base_binding: base_binding.clone(),
                base: base.clone(),
                tensor_dims: tensor_dims.clone(),
                reduce_dims: reduce_dims.clone(),
            };
            let predicted = dp.concretize(&combined);
            let actual = build(&combined);
            if !programs_equal(&predicted, &actual) {
                return Err("symbolic dims are not separable: combined probe mismatch".into());
            }
        }
        Ok(DynProgram {
            table,
            base_binding,
            base,
            tensor_dims,
            reduce_dims,
        })
    }

    /// The declared symbolic dims.
    pub fn table(&self) -> &SymTable {
        &self.table
    }

    /// The template program (built at the base binding).
    pub fn base(&self) -> &TeProgram {
        &self.base
    }

    /// The binding the template was built at.
    pub fn base_binding(&self) -> &SymBinding {
        &self.base_binding
    }

    /// Per-axis dims of a tensor (by tensor-id index).
    pub fn tensor_dims(&self, tensor: usize) -> &[Dim] {
        &self.tensor_dims[tensor]
    }

    /// Per-entry dims of a TE's `reduce` vector (by TE-id index).
    pub fn reduce_dims(&self, te: usize) -> &[Dim] {
        &self.reduce_dims[te]
    }

    /// Axes of a tensor that are symbolic, as `(axis, sym)` pairs.
    pub fn sym_axes(&self, tensor: usize) -> Vec<(usize, SymId)> {
        self.tensor_dims[tensor]
            .iter()
            .enumerate()
            .filter_map(|(axis, d)| d.as_sym().map(|s| (axis, s)))
            .collect()
    }

    /// Fault-injection/testing constructor: replaces one tensor-axis
    /// annotation. The verifier must reject templates whose annotations
    /// disagree with the access patterns (SV020) — this is how test suites
    /// build such templates.
    pub fn with_tensor_dim(&self, tensor: usize, axis: usize, dim: Dim) -> DynProgram {
        let mut dp = self.clone();
        dp.tensor_dims[tensor][axis] = dim;
        dp
    }

    /// Fault-injection/testing constructor: replaces the declared table
    /// (e.g. shrinking a bound out from under the lowered template).
    pub fn with_table(&self, table: SymTable) -> DynProgram {
        let mut dp = self.clone();
        dp.table = table;
        dp
    }

    /// Fault-injection/testing constructor: replaces one TE body in the
    /// base template.
    pub fn with_te_body(&self, te: usize, body: crate::ScalarExpr) -> DynProgram {
        let mut dp = self.clone();
        let mut p = TeProgram::new();
        for info in self.base.tensors() {
            p.add_tensor(&info.name, info.shape.clone(), info.dtype, info.kind);
        }
        for (i, t) in self.base.tes().iter().enumerate() {
            let mut t = t.clone();
            if i == te {
                t.body = body.clone();
            }
            p.push_te(t);
        }
        dp.base = p;
        dp
    }

    /// Rebuilds the concrete program at `binding`, substituting every
    /// symbolic extent. Tensor and TE ids are preserved from the template.
    pub fn concretize(&self, binding: &SymBinding) -> TeProgram {
        let mut p = TeProgram::new();
        for (i, info) in self.base.tensors().iter().enumerate() {
            let dims: Vec<i64> = self.tensor_dims[i]
                .iter()
                .map(|d| d.eval(binding))
                .collect();
            p.add_tensor(&info.name, Shape::new(dims), info.dtype, info.kind);
        }
        for (i, te) in self.base.tes().iter().enumerate() {
            let reduce: Vec<i64> = self.reduce_dims[i]
                .iter()
                .map(|d| d.eval(binding))
                .collect();
            p.push_te(TensorExpr {
                reduce,
                ..te.clone()
            });
        }
        p
    }
}

fn programs_equal(a: &TeProgram, b: &TeProgram) -> bool {
    a.tensors() == b.tensors() && a.tes() == b.tes()
}

/// Diffs `base` (sym `s` at `min`) against `probe` (sym `s` at `min + 1`),
/// recording slope-1 extents as `Dim::Sym(s)`.
fn diff_probe(
    base: &TeProgram,
    probe: &TeProgram,
    s: SymId,
    min: i64,
    tensor_dims: &mut [Vec<Dim>],
    reduce_dims: &mut [Vec<Dim>],
) -> Result<(), String> {
    if base.num_tensors() != probe.num_tensors() {
        return Err(format!(
            "sym {s}: tensor count changes with the dim ({} vs {})",
            base.num_tensors(),
            probe.num_tensors()
        ));
    }
    if base.num_tes() != probe.num_tes() {
        return Err(format!(
            "sym {s}: TE count changes with the dim ({} vs {})",
            base.num_tes(),
            probe.num_tes()
        ));
    }
    for (i, (ta, tb)) in base.tensors().iter().zip(probe.tensors()).enumerate() {
        if ta.name != tb.name || ta.dtype != tb.dtype || ta.kind != tb.kind {
            return Err(format!("sym {s}: tensor {i} metadata changes with the dim"));
        }
        if ta.shape.rank() != tb.shape.rank() {
            return Err(format!(
                "sym {s}: tensor {} rank changes with the dim",
                ta.name
            ));
        }
        for (axis, (&da, &db)) in ta.shape.dims().iter().zip(tb.shape.dims()).enumerate() {
            match db - da {
                0 => {}
                1 if da == min => match tensor_dims[i][axis] {
                    Dim::Fixed(_) => tensor_dims[i][axis] = Dim::Sym(s),
                    Dim::Sym(other) => {
                        return Err(format!(
                            "tensor {} axis {axis} varies with both {other} and {s}",
                            ta.name
                        ))
                    }
                },
                _ => {
                    return Err(format!(
                        "sym {s}: tensor {} axis {axis} moves {da} -> {db}, not slope-1 \
                         from the sym value",
                        ta.name
                    ))
                }
            }
        }
    }
    for (i, (ea, eb)) in base.tes().iter().zip(probe.tes()).enumerate() {
        if ea.name != eb.name
            || ea.output != eb.output
            || ea.inputs != eb.inputs
            || ea.reduce_op != eb.reduce_op
            || ea.body != eb.body
        {
            return Err(format!("sym {s}: TE {i} structure changes with the dim"));
        }
        if ea.reduce.len() != eb.reduce.len() {
            return Err(format!("sym {s}: TE {} reduce rank changes", ea.name));
        }
        for (j, (&da, &db)) in ea.reduce.iter().zip(&eb.reduce).enumerate() {
            match db - da {
                0 => {}
                1 if da == min => match reduce_dims[i][j] {
                    Dim::Fixed(_) => reduce_dims[i][j] = Dim::Sym(s),
                    Dim::Sym(other) => {
                        return Err(format!(
                            "TE {} reduce {j} varies with both {other} and {s}",
                            ea.name
                        ))
                    }
                },
                _ => {
                    return Err(format!(
                        "sym {s}: TE {} reduce {j} moves {da} -> {db}, not slope-1",
                        ea.name
                    ))
                }
            }
        }
    }
    Ok(())
}

/// How concrete programs are obtained from a dynamic model.
#[derive(Clone)]
pub enum DynSource {
    /// Shape-only template: one lowering, extents substituted per binding.
    /// Verifiable parametrically.
    Template(DynProgram),
    /// Structural generator (e.g. an unrolled LSTM whose TE count tracks the
    /// dim). Re-lowered per binding; verified per bucket.
    Generator(Arc<dyn Fn(&SymBinding) -> TeProgram + Send + Sync>),
}

impl fmt::Debug for DynSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DynSource::Template(_) => write!(f, "DynSource::Template"),
            DynSource::Generator(_) => write!(f, "DynSource::Generator"),
        }
    }
}

/// An input family indexed by a per-step suffix (`{prefix}{t}` for
/// `t in 0..sym`); steps at or beyond the bound value are pad-filled.
#[derive(Debug, Clone)]
pub struct PerStep {
    /// Name prefix; members are `{prefix}{t}`.
    pub prefix: String,
    /// The sym the step index ranges over.
    pub sym: SymId,
}

/// An input the *serving layer* derives from the shape binding instead of the
/// requester: validity masks and step gates that make padded slots inert.
#[derive(Debug, Clone)]
pub enum DerivedInput {
    /// Per-position mask of length `sym`'s axis: `valid` for positions
    /// `< sym`, `pad` beyond (BERT attention mask: `0.0` / `-1e30`).
    SeqMask {
        /// Tensor name of the mask input.
        name: String,
        /// The sym giving the number of valid positions.
        sym: SymId,
        /// Value at positions `< sym`.
        valid: f32,
        /// Value at padded positions.
        pad: f32,
    },
    /// Per-step scalar gate `{prefix}{t}`: `valid` while `t < sym`, `pad`
    /// beyond (LSTM step gate: `1.0` / `0.0`).
    StepGate {
        /// Name prefix; the gate for step `t` is `{prefix}{t}`.
        prefix: String,
        /// The sym giving the number of real steps.
        sym: SymId,
        /// Gate value for real steps.
        valid: f32,
        /// Gate value for padded steps.
        pad: f32,
    },
}

/// A dynamic-shape model: symbol declarations, a program source, and the
/// padding contract (fill values, derived masks, per-step input families).
#[derive(Debug, Clone)]
pub struct DynSpec {
    /// Declared symbolic dims.
    pub table: SymTable,
    /// How concrete programs are obtained.
    pub source: DynSource,
    /// Pad fill per tensor name for symbolic axes; tensors not listed pad
    /// with `0.0`.
    pub pad_fill: Vec<(String, f32)>,
    /// Inputs the serving layer derives from the shape binding.
    pub derived: Vec<DerivedInput>,
    /// Input families indexed by a step suffix.
    pub per_step: Vec<PerStep>,
}

impl DynSpec {
    /// Wraps a fixed-shape program as a degenerate (no-sym) dynamic model.
    pub fn fixed(program: TeProgram) -> DynSpec {
        DynSpec {
            table: SymTable::new(),
            source: DynSource::Generator(Arc::new(move |_| program.clone())),
            pad_fill: Vec::new(),
            derived: Vec::new(),
            per_step: Vec::new(),
        }
    }

    /// The concrete program at `binding`.
    pub fn at(&self, binding: &SymBinding) -> TeProgram {
        match &self.source {
            DynSource::Template(dp) => dp.concretize(binding),
            DynSource::Generator(f) => f(binding),
        }
    }

    /// The template, when the source is one.
    pub fn template(&self) -> Option<&DynProgram> {
        match &self.source {
            DynSource::Template(dp) => Some(dp),
            DynSource::Generator(_) => None,
        }
    }

    /// Pad fill for a tensor's symbolic axes.
    pub fn pad_fill_for(&self, name: &str) -> f32 {
        self.pad_fill
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0.0)
    }

    /// Whether the serving layer (not the requester) supplies this tensor.
    pub fn is_derived_name(&self, name: &str) -> bool {
        self.derived.iter().any(|d| match d {
            DerivedInput::SeqMask { name: n, .. } => n == name,
            DerivedInput::StepGate { prefix, .. } => step_index(name, prefix).is_some(),
        })
    }

    /// The per-step family a tensor name belongs to, as `(sym, step)`.
    pub fn per_step_index(&self, name: &str) -> Option<(SymId, i64)> {
        self.per_step
            .iter()
            .find_map(|ps| step_index(name, &ps.prefix).map(|t| (ps.sym, t)))
    }

    /// Materializes a derived input at a bucket shape for a request bound at
    /// `binding`. `shape` is the tensor's shape in the bucket program.
    pub fn derived_tensor(
        &self,
        name: &str,
        shape: &Shape,
        binding: &SymBinding,
    ) -> Option<Tensor> {
        for d in &self.derived {
            match d {
                DerivedInput::SeqMask {
                    name: n,
                    sym,
                    valid,
                    pad,
                } => {
                    if n == name {
                        let bound = binding.get(*sym);
                        let mut t = Tensor::full(shape.clone(), *pad);
                        for i in 0..bound.min(shape.numel()) {
                            t.data_mut()[i as usize] = *valid;
                        }
                        return Some(t);
                    }
                }
                DerivedInput::StepGate {
                    prefix,
                    sym,
                    valid,
                    pad,
                } => {
                    if let Some(t_idx) = step_index(name, prefix) {
                        let v = if t_idx < binding.get(*sym) {
                            *valid
                        } else {
                            *pad
                        };
                        return Some(Tensor::full(shape.clone(), v));
                    }
                }
            }
        }
        None
    }
}

fn step_index(name: &str, prefix: &str) -> Option<i64> {
    name.strip_prefix(prefix)?.parse::<i64>().ok()
}

/// Analytic bucket-boundary selection for one symbolic dim: every power of
/// two inside `min..=max`, clamped to the declared bounds (so `min` and
/// `max` are always boundaries). Powers of two track the kernel-tier
/// crossover (`SMALL_TE_POINTS` is itself a power of two) without per-shape
/// search, à la Vortex's hardware-limit-derived strategy hierarchy.
pub fn bucket_boundaries(min: i64, max: i64) -> Vec<i64> {
    assert!(1 <= min && min <= max, "need 1 <= min <= max");
    let mut out = vec![min];
    let mut p: i64 = 1;
    while p <= max / 2 {
        p *= 2;
        if p > min && p < max {
            out.push(p);
        }
    }
    if max > min {
        out.push(max);
    }
    out
}

impl SymTable {
    /// Cartesian product of per-sym [`bucket_boundaries`], as bindings.
    /// Empty table yields the single empty binding.
    pub fn bucket_bindings(&self) -> Vec<SymBinding> {
        let mut acc = vec![Vec::new()];
        for d in &self.decls {
            let bs = bucket_boundaries(d.min, d.max);
            acc = acc
                .into_iter()
                .flat_map(|v: Vec<i64>| {
                    bs.iter().map(move |&b| {
                        let mut v2 = v.clone();
                        v2.push(b);
                        v2
                    })
                })
                .collect();
        }
        acc.into_iter().map(|vals| SymBinding { vals }).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::TeProgram;
    use crate::{BinaryOp, ScalarExpr};
    use souffle_affine::IndexExpr;
    use souffle_tensor::DType;

    fn matvec(rows: i64, cols: i64) -> TeProgram {
        let mut p = TeProgram::new();
        let x = p.add_input("x", Shape::new(vec![rows, cols]), DType::F32);
        let w = p.add_weight("w", Shape::new(vec![cols]), DType::F32);
        let body = ScalarExpr::binary(
            BinaryOp::Mul,
            ScalarExpr::input(0, vec![IndexExpr::var(0), IndexExpr::var(1)]),
            ScalarExpr::input(1, vec![IndexExpr::var(1)]),
        );
        let y = p.add_te(
            "y",
            Shape::new(vec![rows]),
            DType::F32,
            vec![x, w],
            vec![cols],
            Some(crate::ReduceOp::Sum),
            body,
        );
        p.mark_output(y);
        p
    }

    #[test]
    fn infer_marks_slope_one_axes_symbolic() {
        let mut table = SymTable::new();
        let rows = table.declare("rows", 1, 16);
        let dp = DynProgram::infer(table, &|b| matvec(b.get(rows), 8)).unwrap();
        assert_eq!(dp.tensor_dims(0), &[Dim::Sym(rows), Dim::Fixed(8)]);
        assert_eq!(dp.tensor_dims(1), &[Dim::Fixed(8)]);
        assert_eq!(dp.reduce_dims(0), &[Dim::Fixed(8)]);
        let at5 = dp.concretize(&dp.table().bind(vec![5]).unwrap());
        assert_eq!(at5.tensor(crate::TensorId(0)).shape.dims(), &[5, 8]);
        at5.validate().unwrap();
        assert!(programs_equal(&at5, &matvec(5, 8)));
    }

    #[test]
    fn infer_marks_symbolic_reduce_extents() {
        let mut table = SymTable::new();
        let cols = table.declare("cols", 1, 32);
        let dp = DynProgram::infer(table, &|b| matvec(4, b.get(cols))).unwrap();
        assert_eq!(dp.tensor_dims(0), &[Dim::Fixed(4), Dim::Sym(cols)]);
        assert_eq!(dp.reduce_dims(0), &[Dim::Sym(cols)]);
        let at7 = dp.concretize(&dp.table().bind(vec![7]).unwrap());
        assert!(programs_equal(&at7, &matvec(4, 7)));
    }

    #[test]
    fn infer_rejects_non_slope_one_builders() {
        let mut table = SymTable::new();
        let s = table.declare("s", 1, 8);
        let err = DynProgram::infer(table, &|b| matvec(2 * b.get(s), 8)).unwrap_err();
        assert!(err.contains("not slope-1"), "{err}");
    }

    #[test]
    fn two_sym_inference_is_separable() {
        let mut table = SymTable::new();
        let r = table.declare("rows", 1, 8);
        let c = table.declare("cols", 2, 16);
        let dp = DynProgram::infer(table, &|b| matvec(b.get(r), b.get(c))).unwrap();
        let b = dp.table().bind(vec![3, 5]).unwrap();
        assert!(programs_equal(&dp.concretize(&b), &matvec(3, 5)));
    }

    #[test]
    fn dim_poly_arithmetic_and_eval() {
        let mut table = SymTable::new();
        let a = table.declare("a", 1, 10);
        let b = table.declare("b", 1, 10);
        let p = DimPoly::sym(a)
            .mul(&DimPoly::sym(b))
            .add(&DimPoly::sym(a).scale(3))
            .add(&DimPoly::constant(2));
        let bind = table.bind(vec![4, 5]).unwrap();
        assert_eq!(p.eval(&bind), 4 * 5 + 3 * 4 + 2);
        assert_eq!(p.degree(), 2);
        assert!(!p.is_constant());
        assert_eq!(format!("{p}"), "2 + 3*s0 + s0*s1");
        let zero = p.add(&p.scale(-1));
        assert_eq!(zero, DimPoly::zero());
        assert!(zero.is_constant());
    }

    #[test]
    fn bucket_boundaries_are_powers_of_two_clamped() {
        assert_eq!(bucket_boundaries(1, 8), vec![1, 2, 4, 8]);
        assert_eq!(bucket_boundaries(1, 100), vec![1, 2, 4, 8, 16, 32, 64, 100]);
        assert_eq!(bucket_boundaries(3, 24), vec![3, 4, 8, 16, 24]);
        assert_eq!(bucket_boundaries(5, 5), vec![5]);
        assert_eq!(
            bucket_boundaries(1, 384),
            vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 384]
        );
        let mut t = SymTable::new();
        t.declare("a", 1, 4);
        t.declare("b", 3, 3);
        let bb = t.bucket_bindings();
        assert_eq!(
            bb.iter().map(|b| b.values().to_vec()).collect::<Vec<_>>(),
            vec![vec![1, 3], vec![2, 3], vec![4, 3]]
        );
        assert_eq!(SymTable::new().bucket_bindings().len(), 1);
    }

    #[test]
    fn derived_inputs_materialize_masks_and_gates() {
        let mut table = SymTable::new();
        let seq = table.declare("seq", 1, 8);
        let spec = DynSpec {
            table: table.clone(),
            source: DynSource::Generator(Arc::new(|_| TeProgram::new())),
            pad_fill: vec![("x".into(), -1.0)],
            derived: vec![
                DerivedInput::SeqMask {
                    name: "mask".into(),
                    sym: seq,
                    valid: 0.0,
                    pad: -1e30,
                },
                DerivedInput::StepGate {
                    prefix: "m".into(),
                    sym: seq,
                    valid: 1.0,
                    pad: 0.0,
                },
            ],
            per_step: vec![PerStep {
                prefix: "x".into(),
                sym: seq,
            }],
        };
        let b = table.bind(vec![3]).unwrap();
        let mask = spec
            .derived_tensor("mask", &Shape::new(vec![8]), &b)
            .unwrap();
        assert_eq!(&mask.data()[..4], &[0.0, 0.0, 0.0, -1e30]);
        assert_eq!(
            spec.derived_tensor("m2", &Shape::new(vec![1]), &b)
                .unwrap()
                .data(),
            &[1.0]
        );
        assert_eq!(
            spec.derived_tensor("m3", &Shape::new(vec![1]), &b)
                .unwrap()
                .data(),
            &[0.0]
        );
        assert!(spec.is_derived_name("mask") && spec.is_derived_name("m7"));
        assert!(!spec.is_derived_name("x1"));
        assert_eq!(spec.per_step_index("x5"), Some((seq, 5)));
        assert_eq!(spec.pad_fill_for("x"), -1.0);
        assert_eq!(spec.pad_fill_for("other"), 0.0);
    }
}
