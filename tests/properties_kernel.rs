//! Property tests for the chunked f64x4 kernel layer (`fair_core::kernel`).
//!
//! The central claim: every kernel follows ONE canonical 4-lane
//! accumulation order (lane `j` sums elements `4i + j` over complete
//! 4-blocks, lanes combine as `(l0 + l1) + (l2 + l3)`, the `n % 4` tail is
//! added sequentially after the combine), and for `n < 4` degenerates to
//! the plain sequential sum **bit for bit** — including `-0.0`,
//! infinities, and NaN payload propagation through the accumulator.
//!
//! The oracles are written out longhand below, independent of the code
//! under test. The tests sweep tail remainders `n % 4 ∈ {0,1,2,3}` and
//! feature counts `{1,3,4,5,8}` so each const-generic specialization and
//! the runtime-dims fallback are all exercised.

use fair_ranking::core::kernel;
use proptest::collection::vec as pvec;
use proptest::prelude::*;

/// A finite value plus occasional NaN / infinity / signed-zero specials:
/// the kernels must agree (bitwise where the order is shared, NaN-presence
/// where it is not) even on poisoned rows.
fn special_f64() -> impl Strategy<Value = f64> {
    (0_u32..12, -1.0e6_f64..1.0e6).prop_map(|(pick, finite)| match pick {
        0 => 0.0,
        1 => -0.0,
        2 => f64::NAN,
        3 => f64::INFINITY,
        4 => f64::NEG_INFINITY,
        _ => finite,
    })
}

/// Maps a draw from `0..table.len()` to the table entry: the vendored
/// proptest has no `sample::select`, so shape sweeps draw an index.
fn pick(table: &'static [usize]) -> impl Strategy<Value = usize> {
    (0_usize..table.len()).prop_map(move |i| table[i])
}

/// The documented reference order, written out longhand: the oracle the
/// kernels are checked against, independent of the implementation under
/// test.
fn canonical_dot(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let blocks = n / 4;
    let mut lanes = [-0.0_f64; 4];
    for i in 0..blocks {
        for j in 0..4 {
            lanes[j] += a[4 * i + j] * b[4 * i + j];
        }
    }
    let mut sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    for i in 4 * blocks..n {
        sum += a[i] * b[i];
    }
    sum
}

/// The canonical column-sum order, written out longhand: lane `j` folds
/// rows `4i + j`, lanes combine as `(l0 + l1) + (l2 + l3)` per column, tail
/// rows append sequentially after the combine.
fn canonical_col_sums(matrix: &[f64], dims: usize) -> Vec<f64> {
    let rows = matrix.len() / dims;
    let blocks = rows / 4;
    let mut lanes = vec![0.0_f64; 4 * dims];
    for i in 0..blocks {
        for j in 0..4 {
            let row = &matrix[(4 * i + j) * dims..(4 * i + j + 1) * dims];
            for (a, v) in lanes[j * dims..(j + 1) * dims].iter_mut().zip(row) {
                *a += v;
            }
        }
    }
    let mut out = vec![0.0_f64; dims];
    for d in 0..dims {
        out[d] = (lanes[d] + lanes[dims + d]) + (lanes[2 * dims + d] + lanes[3 * dims + d]);
    }
    for r in 4 * blocks..rows {
        for (a, v) in out.iter_mut().zip(&matrix[r * dims..(r + 1) * dims]) {
            *a += v;
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// For `n < 4` the dot IS the plain sequential sum, bit for bit — no
    /// reassociation exists to hide behind.
    #[test]
    fn short_dots_are_the_sequential_sum_bitwise(
        a in pvec(special_f64(), 0..4),
    ) {
        let b: Vec<f64> = a.iter().map(|x| x * 0.5 - 1.0).collect();
        let sequential: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        prop_assert_eq!(kernel::dot(&a, &b).to_bits(), sequential.to_bits());
    }

    /// For any length the dot follows the canonical 4-lane order exactly,
    /// so cross-path parity never depends on which call site computed the
    /// dot. NaN results compare as NaN-to-NaN rather than bitwise: which
    /// operand's NaN payload a multiply propagates is the one thing IEEE
    /// leaves to the implementation, and LLVM may commute operands between
    /// this oracle and the kernel.
    #[test]
    fn chunked_dot_is_the_canonical_order_bitwise(
        a in pvec(special_f64(), 0..67),
    ) {
        let same = |x: f64, y: f64| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
        let b: Vec<f64> = a.iter().rev().cloned().collect();
        let got = kernel::dot(&a, &b);
        let oracle = canonical_dot(&a, &b);
        prop_assert!(same(got, oracle), "dot {:x} vs {:x}", got.to_bits(), oracle.to_bits());
    }

    /// Row-batch scoring: for every feature count (each const-generic
    /// specialization plus the runtime fallback) and every row-count tail
    /// remainder, each output row equals the single-row dot — batching must
    /// never change a row's bits. NaN-bearing rows poison only their own
    /// output.
    #[test]
    fn batched_rows_equal_single_row_dots_bitwise(
        dims in pick(&[1, 3, 4, 5, 8]),
        rows in 0_usize..13,
        seed in any::<u64>(),
        poison in any::<bool>(),
    ) {
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            ((state >> 33) as f64) / ((1_u64 << 31) as f64) - 0.5
        };
        let mut matrix: Vec<f64> = (0..rows * dims).map(|_| next()).collect();
        if poison && !matrix.is_empty() {
            let at = (seed as usize) % matrix.len();
            matrix[at] = f64::NAN;
        }
        let weights: Vec<f64> = (0..dims).map(|_| next()).collect();
        let mut out = Vec::new();
        kernel::dot_rows_into(&matrix, dims, &weights, &mut out);
        prop_assert_eq!(out.len(), rows);
        for (r, &got) in out.iter().enumerate() {
            let row = &matrix[r * dims..(r + 1) * dims];
            let want = kernel::dot(row, &weights);
            prop_assert_eq!(got.to_bits(), want.to_bits(), "row {} dims {}", r, dims);
        }
        // The additive pass seeds with the base scores and adds the same
        // per-row dot on top.
        let base: Vec<f64> = (0..rows).map(|_| next()).collect();
        let mut acc = base.clone();
        kernel::add_dot_rows_into(&matrix, dims, &weights, &mut acc);
        for (r, (&got, &b)) in acc.iter().zip(&base).enumerate() {
            let row = &matrix[r * dims..(r + 1) * dims];
            let want = b + kernel::dot(row, &weights);
            prop_assert_eq!(got.to_bits(), want.to_bits(), "add row {} dims {}", r, dims);
        }
    }

    /// Column sums follow the documented order exactly — the canonical 4-row
    /// lanes with the `rows % 4` tail added after the lane combine — and
    /// under four rows that is the plain sequential row fold. The
    /// row-iterator variant (sample views, the gathered disparity combine)
    /// must match the dense sum bit for bit.
    #[test]
    fn column_sums_follow_their_documented_orders_bitwise(
        dims in pick(&[1, 3, 4, 5, 8]),
        rows in 0_usize..13,
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            ((state >> 33) as f64) / ((1_u64 << 29) as f64) - 4.0
        };
        let matrix: Vec<f64> = (0..rows * dims).map(|_| next()).collect();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

        let mut dense = Vec::new();
        kernel::col_sums_into(&matrix, dims, &mut dense);
        prop_assert_eq!(bits(&dense), bits(&canonical_col_sums(&matrix, dims)));
        if rows < 4 {
            let mut sequential = vec![0.0_f64; dims];
            for row in matrix.chunks_exact(dims) {
                for (a, v) in sequential.iter_mut().zip(row) {
                    *a += v;
                }
            }
            prop_assert_eq!(bits(&dense), bits(&sequential), "under four rows the fold is sequential");
        }

        let mut via_rows = Vec::new();
        let n = kernel::col_sums_rows_into(dims, matrix.chunks_exact(dims), &mut via_rows);
        prop_assert_eq!(n, rows);
        prop_assert_eq!(bits(&via_rows), bits(&dense));
    }

    /// The gathered Core-DCA scoring kernel (indices into feature/fairness
    /// matrices) equals scoring each gathered row individually, for every
    /// (features, attributes) shape including the non-specialized ones.
    #[test]
    fn gathered_scoring_equals_per_row_scoring_bitwise(
        nf in pick(&[1, 2, 3, 4, 5]),
        na in pick(&[1, 2, 4, 5]),
        rows in 1_usize..40,
        picks in pvec(any::<usize>(), 0..23),
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            ((state >> 33) as f64) / ((1_u64 << 30) as f64) - 2.0
        };
        let features: Vec<f64> = (0..rows * nf).map(|_| next()).collect();
        let fairness: Vec<f64> = (0..rows * na).map(|_| next()).collect();
        let weights: Vec<f64> = (0..nf).map(|_| next()).collect();
        let bonus: Vec<f64> = (0..na).map(|_| next()).collect();
        let indices: Vec<usize> = picks.iter().map(|p| p % rows).collect();
        let mut out = Vec::new();
        kernel::gathered_linear_scores_into(
            &features, nf, &weights, &fairness, na, &bonus, &indices, &mut out,
        );
        prop_assert_eq!(out.len(), indices.len());
        for (slot, (&got, &i)) in out.iter().zip(&indices).enumerate() {
            let f = canonical_dot(&features[i * nf..(i + 1) * nf], &weights);
            let a = canonical_dot(&fairness[i * na..(i + 1) * na], &bonus);
            prop_assert_eq!(
                got.to_bits(),
                (f + a).to_bits(),
                "slot {} nf {} na {}",
                slot,
                nf,
                na
            );
        }
    }
}
