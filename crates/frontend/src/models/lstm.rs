//! The stacked LSTM of §8.4: 10 cells, hidden size 256, input length 100,
//! fully unrolled over time (Fig. 7).
//!
//! Each cell-step performs two GEMVs (`W·x` and `U·h`), gate arithmetic
//! and state updates. The GEMVs along an anti-diagonal of the (cell, time)
//! grid are independent — the wavefront parallelism both Rammer and
//! Souffle exploit — and every cell's weights are reused across all time
//! steps (temporal reuse, Table 6).

use super::ModelConfig;
use souffle_te::{builders, BinaryOp, TeProgram, UnaryOp};
use souffle_tensor::{DType, Shape};

/// LSTM build configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LstmConfig {
    /// Number of stacked cells.
    pub cells: usize,
    /// Hidden size.
    pub hidden: i64,
    /// Unrolled time steps (input length).
    pub steps: usize,
}

impl LstmConfig {
    /// Builds the configuration for a size class.
    pub fn new(config: ModelConfig) -> Self {
        match config {
            ModelConfig::Paper => LstmConfig {
                cells: 10,
                hidden: 256,
                steps: 100,
            },
            ModelConfig::Tiny => LstmConfig {
                cells: 2,
                hidden: 8,
                steps: 3,
            },
        }
    }
}

/// Builds the TE program.
pub fn build(cfg: &LstmConfig) -> TeProgram {
    build_impl(cfg, false)
}

/// Builds the TE program with per-step scalar gates (`lstm.m{t}`, shape
/// `[1]`): `1.0` for real steps, `0.0` for padding. A gated step computes
/// `h' = m*h_new + (1-m)*h_old` (likewise for the cell state), so padded
/// steps pass state through bit-exactly and the final output equals the
/// unpadded program's — sum-fold GEMVs never produce `-0.0`, which is the
/// only value a pass-through could perturb.
pub fn build_gated(cfg: &LstmConfig) -> TeProgram {
    build_impl(cfg, true)
}

fn build_impl(cfg: &LstmConfig, gated: bool) -> TeProgram {
    use souffle_affine::IndexExpr;
    use souffle_te::ScalarExpr;

    let mut p = TeProgram::new();
    let dt = DType::F16;
    let h = cfg.hidden;
    let g4 = 4 * h; // i, f, g, o gates stacked

    // Per-cell weights, shared across all time steps.
    let mut w = Vec::with_capacity(cfg.cells);
    let mut u = Vec::with_capacity(cfg.cells);
    let mut bias = Vec::with_capacity(cfg.cells);
    for n in 0..cfg.cells {
        w.push(p.add_weight(&format!("lstm.c{n}.W"), Shape::new(vec![g4, h]), dt));
        u.push(p.add_weight(&format!("lstm.c{n}.U"), Shape::new(vec![g4, h]), dt));
        bias.push(p.add_weight(&format!("lstm.c{n}.b"), Shape::new(vec![g4]), dt));
    }

    // Initial hidden/cell states and the input sequence.
    let mut hidden: Vec<_> = (0..cfg.cells)
        .map(|n| p.add_input(&format!("lstm.h0.c{n}"), Shape::new(vec![h]), dt))
        .collect();
    let mut cell: Vec<_> = (0..cfg.cells)
        .map(|n| p.add_input(&format!("lstm.s0.c{n}"), Shape::new(vec![h]), dt))
        .collect();
    let inputs: Vec<_> = (0..cfg.steps)
        .map(|t| p.add_input(&format!("lstm.x{t}"), Shape::new(vec![h]), dt))
        .collect();

    // Blend `new` and `old` by the scalar gate: m*new + (1-m)*old.
    let mix = |p: &mut TeProgram, name: &str, m, new, old| {
        let gate = || ScalarExpr::input(0, vec![IndexExpr::constant(0)]);
        let body = ScalarExpr::binary(
            BinaryOp::Add,
            ScalarExpr::binary(
                BinaryOp::Mul,
                gate(),
                ScalarExpr::input(1, vec![IndexExpr::var(0)]),
            ),
            ScalarExpr::binary(
                BinaryOp::Mul,
                ScalarExpr::binary(BinaryOp::Sub, ScalarExpr::Const(1.0), gate()),
                ScalarExpr::input(2, vec![IndexExpr::var(0)]),
            ),
        );
        p.add_te(
            name,
            Shape::new(vec![h]),
            dt,
            vec![m, new, old],
            vec![],
            None,
            body,
        )
    };

    let mut last_output = None;
    for (t, &input_t) in inputs.iter().enumerate() {
        let gate = gated.then(|| p.add_input(&format!("lstm.m{t}"), Shape::new(vec![1]), dt));
        let mut x = input_t;
        for n in 0..cfg.cells {
            let tag = format!("lstm.t{t}.c{n}");
            // gates = W x + U h + b : two GEMVs (the wavefront kernels).
            let wx = builders::gemv(&mut p, &format!("{tag}.Wx"), w[n], x);
            let uh = builders::gemv(&mut p, &format!("{tag}.Uh"), u[n], hidden[n]);
            let sum = builders::add(&mut p, &format!("{tag}.sum"), wx, uh);
            let gates = builders::add(&mut p, &format!("{tag}.bias"), sum, bias[n]);
            // Slice the four gates.
            let gi = builders::strided_slice(&mut p, &format!("{tag}.gi"), gates, 0, 0, 1, h);
            let gf = builders::strided_slice(&mut p, &format!("{tag}.gf"), gates, 0, h, 1, h);
            let gg = builders::strided_slice(&mut p, &format!("{tag}.gg"), gates, 0, 2 * h, 1, h);
            let go = builders::strided_slice(&mut p, &format!("{tag}.go"), gates, 0, 3 * h, 1, h);
            let i_g = builders::unary(&mut p, &format!("{tag}.i"), UnaryOp::Sigmoid, gi);
            let f_g = builders::unary(&mut p, &format!("{tag}.f"), UnaryOp::Sigmoid, gf);
            let g_g = builders::unary(&mut p, &format!("{tag}.g"), UnaryOp::Tanh, gg);
            let o_g = builders::unary(&mut p, &format!("{tag}.o"), UnaryOp::Sigmoid, go);
            // c' = f * c + i * g ; h' = o * tanh(c')
            let fc = builders::binary(&mut p, &format!("{tag}.fc"), BinaryOp::Mul, f_g, cell[n]);
            let ig = builders::binary(&mut p, &format!("{tag}.ig"), BinaryOp::Mul, i_g, g_g);
            let c_new = builders::add(&mut p, &format!("{tag}.c"), fc, ig);
            let tc = builders::unary(&mut p, &format!("{tag}.tanh_c"), UnaryOp::Tanh, c_new);
            let h_new = builders::binary(&mut p, &format!("{tag}.h"), BinaryOp::Mul, o_g, tc);
            let (c_next, h_next) = match gate {
                None => (c_new, h_new),
                Some(m) => (
                    mix(&mut p, &format!("{tag}.cgate"), m, c_new, cell[n]),
                    mix(&mut p, &format!("{tag}.hgate"), m, h_new, hidden[n]),
                ),
            };
            cell[n] = c_next;
            hidden[n] = h_next;
            x = h_next;
        }
        last_output = Some(x);
    }
    p.mark_output(last_output.expect("at least one step"));
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use souffle_te::interp::eval_with_random_inputs;

    #[test]
    fn tiny_lstm_runs_in_interpreter() {
        let p = build(&LstmConfig::new(ModelConfig::Tiny));
        p.validate().unwrap();
        let out = eval_with_random_inputs(&p, 2).unwrap();
        let t = out.values().next().unwrap();
        assert_eq!(t.shape().dims(), &[8]);
        // tanh/sigmoid bound outputs.
        assert!(t.data().iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn paper_lstm_has_wavefront_structure() {
        let cfg = LstmConfig::new(ModelConfig::Paper);
        let p = build(&cfg);
        p.validate().unwrap();
        let gemvs = p.tes().iter().filter(|te| te.is_reduction()).count();
        assert_eq!(gemvs, 2 * cfg.cells * cfg.steps);
    }

    #[test]
    fn weights_are_reused_across_steps() {
        let p = build(&LstmConfig::new(ModelConfig::Tiny));
        // Each W is consumed by one GEMV per step.
        let w0 = p
            .tensors()
            .iter()
            .position(|t| t.name == "lstm.c0.W")
            .unwrap();
        assert_eq!(p.consumer_lists()[w0].len(), 3);
    }
}
