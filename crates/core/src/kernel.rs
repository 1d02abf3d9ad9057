//! Chunked, autovectorizer-friendly floating-point kernels — the one place
//! every scoring and accumulation hot loop in the workspace bottoms out.
//!
//! ## The canonical 4-lane accumulation order
//!
//! Every reduction over `n` elements (a dot product over one row, or a
//! column sum over `n` rows) uses **one** fixed operation order:
//!
//! 1. lane `j ∈ {0,1,2,3}` accumulates elements `4i + j` over the complete
//!    4-blocks, left to right (`[f64; 4]` accumulators — the shape LLVM
//!    turns into packed SIMD without `unsafe` or nightly),
//! 2. lanes combine as `(l0 + l1) + (l2 + l3)`,
//! 3. the `n % 4` tail elements are added sequentially after the combine.
//!
//! For `n < 4` no complete block exists, so the order degenerates to the
//! plain sequential left-to-right sum, bit for bit.
//! Every production path — serial [`crate::dataset::Dataset`], the sharded
//! engine, paged stores, the [`crate::metrics::sharded::MetricPlan`] fused
//! sweep, and the fleet [`crate::dca::disparity_partials`] kernel — routes
//! through these functions, so the cross-path bit-parity suites hold by
//! construction: identical inputs meet identical operation sequences.
//!
//! Element-wise accumulations ([`add_row`]) and integer counts
//! ([`count_ge_half`]) have no reassociation to speak of: each output
//! element sees one operand sequence whatever the blocking.

// ---------------------------------------------------------------------
// Dot products.
// ---------------------------------------------------------------------

/// Dot product in the canonical 4-lane order. Operands multiply as
/// `a[i] * b[i]`, and accumulators seed with `-0.0` — the bitwise identity
/// of IEEE addition and the seed `iter().sum::<f64>()` uses — so an empty
/// dot is `-0.0` and `n < 4` is the plain sequential sum bit for bit, even
/// through `-0.0`-valued products. Like `zip`, the longer operand is
/// truncated to the shorter one.
#[inline]
#[must_use]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut lanes = [-0.0_f64; 4];
    let mut ac = a.chunks_exact(4);
    let mut bc = b.chunks_exact(4);
    for (x, y) in (&mut ac).zip(&mut bc) {
        for j in 0..4 {
            lanes[j] += x[j] * y[j];
        }
    }
    let mut sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    for (x, y) in ac.remainder().iter().zip(bc.remainder()) {
        sum += x * y;
    }
    sum
}

// ---------------------------------------------------------------------
// Row-blocked linear scoring (the effective-score hot path).
// ---------------------------------------------------------------------

/// Canonical per-row dot with a compile-time row width, so the 4-rows-at-a-
/// time blocks below unroll into straight-line code LLVM packs into SIMD.
/// Bit-for-bit [`dot`] at every width.
#[inline(always)]
fn dot_row<const D: usize>(row: &[f64], w: &[f64; D]) -> f64 {
    let row: &[f64; D] = row[..D].try_into().expect("row width");
    if D >= 4 {
        let mut lanes = [-0.0_f64; 4];
        let blocks = D / 4;
        for i in 0..blocks {
            for j in 0..4 {
                lanes[j] += row[4 * i + j] * w[4 * i + j];
            }
        }
        let mut sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
        for d in 4 * blocks..D {
            sum += row[d] * w[d];
        }
        sum
    } else {
        let mut sum = -0.0;
        for d in 0..D {
            sum += row[d] * w[d];
        }
        sum
    }
}

/// `out[r] op= dot(row_r, w)` over a dense row-major matrix, 4 rows per
/// block. Cross-row blocking is bit-neutral (row results are independent);
/// each row's dot is the canonical order.
macro_rules! rows_fixed {
    ($name:ident, $op:tt) => {
        #[inline]
        fn $name<const D: usize>(matrix: &[f64], w: &[f64; D], out: &mut [f64]) {
            let mut blocks = matrix.chunks_exact(4 * D);
            let mut r = 0;
            for block in &mut blocks {
                for j in 0..4 {
                    out[r + j] $op dot_row::<D>(&block[j * D..(j + 1) * D], w);
                }
                r += 4;
            }
            for row in blocks.remainder().chunks_exact(D) {
                out[r] $op dot_row::<D>(row, w);
                r += 1;
            }
        }
    };
}

rows_fixed!(dot_rows_fixed, =);
rows_fixed!(add_dot_rows_fixed, +=);

macro_rules! rows_dispatch {
    ($matrix:ident, $dims:ident, $w:ident, $out:ident, $fixed:ident, $op:tt) => {
        match $dims {
            1 => $fixed::<1>($matrix, $w.try_into().expect("width"), $out),
            2 => $fixed::<2>($matrix, $w.try_into().expect("width"), $out),
            3 => $fixed::<3>($matrix, $w.try_into().expect("width"), $out),
            4 => $fixed::<4>($matrix, $w.try_into().expect("width"), $out),
            8 => $fixed::<8>($matrix, $w.try_into().expect("width"), $out),
            _ => {
                for (o, row) in $out.iter_mut().zip($matrix.chunks_exact($dims)) {
                    *o $op dot(row, $w);
                }
            }
        }
    };
}

/// Write `dot(row_r, weights)` for every row of a dense row-major
/// `rows × dims` matrix into `out` (resized to the row count) — the linear-
/// ranker base-score pass.
///
/// # Panics
/// Panics if `dims == 0`, `weights.len() != dims`, or the matrix length is
/// not a multiple of `dims`.
pub fn dot_rows_into(matrix: &[f64], dims: usize, weights: &[f64], out: &mut Vec<f64>) {
    assert!(dims > 0, "row width must be positive");
    assert_eq!(weights.len(), dims, "one weight per column required");
    assert_eq!(matrix.len() % dims, 0, "matrix must be whole rows");
    let rows = matrix.len() / dims;
    out.clear();
    out.resize(rows, 0.0);
    let out = out.as_mut_slice();
    rows_dispatch!(matrix, dims, weights, out, dot_rows_fixed, =);
}

/// `out[r] += dot(row_r, weights)` for every row of a dense row-major
/// matrix — the bonus-increment pass (`f_b = f + A_f · B`).
///
/// # Panics
/// Panics if the matrix shape disagrees with `out.len() × dims` or
/// `weights.len() != dims`.
pub fn add_dot_rows_into(matrix: &[f64], dims: usize, weights: &[f64], out: &mut [f64]) {
    assert_eq!(weights.len(), dims, "one weight per column required");
    assert_eq!(matrix.len(), out.len() * dims, "matrix must be whole rows");
    if dims == 0 {
        // A fairness-free schema: adding the empty sum (`-0.0`) to every
        // base score is a bitwise no-op.
        return;
    }
    rows_dispatch!(matrix, dims, weights, out, add_dot_rows_fixed, +=);
}

/// `out[r] = dot(features[idx_r], fw) + dot(fairness[idx_r], aw)` for a
/// gathered index list — the sampled (Core DCA) scoring path. Four
/// independent row gathers per block keep the memory system busy on large
/// cohorts; per-row arithmetic is exactly [`dot`] + [`dot`] + one add, so
/// the result is bit-for-bit the dense/per-row paths' on the same rows.
///
/// # Panics
/// Panics if `nf == 0`, a weight length disagrees with its width, or an
/// index is out of bounds.
#[allow(clippy::too_many_arguments)]
pub fn gathered_linear_scores_into(
    features: &[f64],
    nf: usize,
    fw: &[f64],
    fairness: &[f64],
    na: usize,
    aw: &[f64],
    indices: &[usize],
    out: &mut Vec<f64>,
) {
    assert!(nf > 0, "feature width must be positive");
    assert_eq!(fw.len(), nf, "one weight per feature required");
    assert_eq!(aw.len(), na, "one bonus per fairness dimension required");
    out.clear();
    out.resize(indices.len(), 0.0);
    let out = out.as_mut_slice();
    macro_rules! gather {
        ($NF:literal, $NA:literal) => {
            gathered_fixed::<$NF, $NA>(features, fw, fairness, aw, indices, out)
        };
    }
    match (nf, na) {
        (1, 1) => gather!(1, 1),
        (1, 2) => gather!(1, 2),
        (1, 4) => gather!(1, 4),
        (2, 1) => gather!(2, 1),
        (2, 2) => gather!(2, 2),
        (2, 4) => gather!(2, 4),
        (4, 4) => gather!(4, 4),
        _ => {
            for (o, &i) in out.iter_mut().zip(indices) {
                let base = dot(&features[i * nf..(i + 1) * nf], fw);
                let increment = dot(&fairness[i * na..(i + 1) * na], aw);
                *o = base + increment;
            }
        }
    }
}

/// Four gathered rows per iteration at compile-time widths: the loads of a
/// block are independent, so cache misses on a large cohort overlap instead
/// of serializing row by row.
#[inline]
fn gathered_fixed<const NF: usize, const NA: usize>(
    features: &[f64],
    fw: &[f64],
    fairness: &[f64],
    aw: &[f64],
    indices: &[usize],
    out: &mut [f64],
) {
    let fw: &[f64; NF] = fw.try_into().expect("width");
    let aw: &[f64; NA] = aw.try_into().expect("width");
    let score = |i: usize| -> f64 {
        dot_row::<NF>(&features[i * NF..(i + 1) * NF], fw)
            + dot_row::<NA>(&fairness[i * NA..(i + 1) * NA], aw)
    };
    let mut blocks = indices.chunks_exact(4);
    let mut r = 0;
    for block in &mut blocks {
        let s0 = score(block[0]);
        let s1 = score(block[1]);
        let s2 = score(block[2]);
        let s3 = score(block[3]);
        out[r] = s0;
        out[r + 1] = s1;
        out[r + 2] = s2;
        out[r + 3] = s3;
        r += 4;
    }
    for &i in blocks.remainder() {
        out[r] = score(i);
        r += 1;
    }
}

// ---------------------------------------------------------------------
// Column sums (centroid accumulators).
// ---------------------------------------------------------------------

/// Canonical chunked column sums over a dense row-major matrix: per column,
/// lane `j` accumulates rows `4i + j`, lanes combine `(l0+l1)+(l2+l3)`, the
/// `rows % 4` tail rows add sequentially.
#[inline]
fn col_sums_fixed<const D: usize>(matrix: &[f64], out: &mut [f64]) {
    let mut lanes = [[0.0_f64; D]; 4];
    let mut blocks = matrix.chunks_exact(4 * D);
    for block in &mut blocks {
        for j in 0..4 {
            for d in 0..D {
                lanes[j][d] += block[j * D + d];
            }
        }
    }
    for d in 0..D {
        out[d] = (lanes[0][d] + lanes[1][d]) + (lanes[2][d] + lanes[3][d]);
    }
    for row in blocks.remainder().chunks_exact(D) {
        for d in 0..D {
            out[d] += row[d];
        }
    }
}

/// Runtime-width version of [`col_sums_fixed`] — the same abstract order
/// (the per-column value is associated identically), for widths outside the
/// specialized set.
fn col_sums_generic(matrix: &[f64], dims: usize, out: &mut [f64]) {
    let mut lanes = vec![0.0_f64; 4 * dims];
    let mut blocks = matrix.chunks_exact(4 * dims);
    for block in &mut blocks {
        for (lane, row) in lanes.chunks_exact_mut(dims).zip(block.chunks_exact(dims)) {
            for (a, v) in lane.iter_mut().zip(row) {
                *a += v;
            }
        }
    }
    for d in 0..dims {
        out[d] = (lanes[d] + lanes[dims + d]) + (lanes[2 * dims + d] + lanes[3 * dims + d]);
    }
    for row in blocks.remainder().chunks_exact(dims) {
        for (a, v) in out.iter_mut().zip(row) {
            *a += v;
        }
    }
}

/// Column sums of a dense row-major `rows × dims` matrix, written into
/// `out` (resized to `dims`) — the fairness-centroid accumulator before the
/// single division.
///
/// # Panics
/// Panics if `dims == 0` or the matrix length is not a multiple of `dims`.
pub fn col_sums_into(matrix: &[f64], dims: usize, out: &mut Vec<f64>) {
    assert!(dims > 0, "row width must be positive");
    assert_eq!(matrix.len() % dims, 0, "matrix must be whole rows");
    out.clear();
    out.resize(dims, 0.0);
    let out = out.as_mut_slice();
    match dims {
        1 => col_sums_fixed::<1>(matrix, out),
        2 => col_sums_fixed::<2>(matrix, out),
        3 => col_sums_fixed::<3>(matrix, out),
        4 => col_sums_fixed::<4>(matrix, out),
        8 => col_sums_fixed::<8>(matrix, out),
        _ => col_sums_generic(matrix, dims, out),
    }
}

/// Column sums over an arbitrary sequence of equally wide rows (a gathered
/// sample, a rank-ordered selection) — the same canonical 4-lane row order
/// as [`col_sums_into`], so a gathered walk over rows `0..n` is bit-for-bit
/// the dense sum. Returns the number of rows consumed.
///
/// # Panics
/// Panics if `dims == 0` or a row is narrower than `dims`.
pub fn col_sums_rows_into<'a>(
    dims: usize,
    rows: impl Iterator<Item = &'a [f64]>,
    out: &mut Vec<f64>,
) -> usize {
    assert!(dims > 0, "row width must be positive");
    out.clear();
    out.resize(dims, 0.0);
    let out = out.as_mut_slice();
    let mut n = 0_usize;
    let mut lanes = vec![0.0_f64; 4 * dims];
    let mut block: [&[f64]; 4] = [&[]; 4];
    let mut fill = 0_usize;
    for row in rows {
        block[fill] = &row[..dims];
        fill += 1;
        n += 1;
        if fill == 4 {
            for (lane, row) in lanes.chunks_exact_mut(dims).zip(block) {
                for (a, v) in lane.iter_mut().zip(row) {
                    *a += v;
                }
            }
            fill = 0;
        }
    }
    for d in 0..dims {
        out[d] = (lanes[d] + lanes[dims + d]) + (lanes[2 * dims + d] + lanes[3 * dims + d]);
    }
    for row in block.iter().take(fill) {
        for (a, v) in out.iter_mut().zip(*row) {
            *a += v;
        }
    }
    n
}

// ---------------------------------------------------------------------
// Order-free helpers.
// ---------------------------------------------------------------------

/// `acc[d] += row[d]` element-wise. Each output element sees one operand
/// sequence, so there is nothing to reassociate.
#[inline]
pub fn add_row(acc: &mut [f64], row: &[f64]) {
    for (a, v) in acc.iter_mut().zip(row) {
        *a += v;
    }
}

/// Count rows whose column `dim` is `>= 0.5` (binary group membership) over
/// a dense row-major matrix — an exact integer reduction, 4 lanes wide.
///
/// # Panics
/// Panics if `dim >= dims`.
#[must_use]
pub fn count_ge_half(matrix: &[f64], dims: usize, dim: usize) -> usize {
    assert!(dim < dims, "column out of bounds");
    let mut lanes = [0_usize; 4];
    let mut blocks = matrix.chunks_exact(4 * dims);
    for block in &mut blocks {
        for j in 0..4 {
            lanes[j] += usize::from(block[j * dims + dim] >= 0.5);
        }
    }
    let mut count = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    for row in blocks.remainder().chunks_exact(dims) {
        count += usize::from(row[dim] >= 0.5);
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(v: f64) -> u64 {
        v.to_bits()
    }

    fn all_bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The plain sequential dot the canonical order degenerates to for
    /// `n < 4`.
    fn sequential_dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    #[test]
    fn short_dots_are_the_sequential_sum() {
        // n < 4 degenerates to the sequential order: bit-for-bit, even for
        // non-dyadic values.
        for n in 0..4 {
            let a: Vec<f64> = (0..n).map(|i| 0.1 + i as f64 * 0.3).collect();
            let b: Vec<f64> = (0..n).map(|i| 1.7 - i as f64 * 0.2).collect();
            assert_eq!(bits(dot(&a, &b)), bits(sequential_dot(&a, &b)), "{n}");
        }
    }

    #[test]
    fn dot_uses_the_documented_lane_order() {
        let c = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7];
        let ones = [1.0; 7];
        let expected = ((c[0] + c[1]) + (c[2] + c[3])) + c[4] + c[5] + c[6];
        assert_eq!(bits(dot(&c, &ones)), bits(expected));
        // Two full blocks: lane j accumulates elements 4i + j first.
        let d: Vec<f64> = (0..8).map(|i| 0.1 * (i + 1) as f64).collect();
        let ones8 = [1.0; 8];
        let lanes = [d[0] + d[4], d[1] + d[5], d[2] + d[6], d[3] + d[7]];
        let expected8 = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
        assert_eq!(bits(dot(&d, &ones8)), bits(expected8));
    }

    #[test]
    fn dot_truncates_to_shorter_operand_like_zip() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[10.0]), 10.0);
    }

    #[test]
    fn dot_rows_matches_per_row_dot_bitwise() {
        for dims in [1, 2, 3, 4, 5, 8, 11] {
            let rows = 13;
            let matrix: Vec<f64> = (0..rows * dims).map(|i| (i as f64).sin() * 3.0).collect();
            let w: Vec<f64> = (0..dims).map(|i| 0.25 + i as f64 * 0.5).collect();
            let mut out = Vec::new();
            dot_rows_into(&matrix, dims, &w, &mut out);
            for (r, row) in matrix.chunks_exact(dims).enumerate() {
                assert_eq!(bits(out[r]), bits(dot(row, &w)), "dims {dims}");
            }
            let mut acc = out.clone();
            add_dot_rows_into(&matrix, dims, &w, &mut acc);
            for (r, row) in matrix.chunks_exact(dims).enumerate() {
                assert_eq!(bits(acc[r]), bits(out[r] + dot(row, &w)));
            }
        }
    }

    #[test]
    fn gathered_scores_match_dense_rows_bitwise() {
        let (nf, na, n) = (2, 4, 29);
        let features: Vec<f64> = (0..n * nf).map(|i| (i as f64 * 0.7).cos()).collect();
        let fairness: Vec<f64> = (0..n * na)
            .map(|i| f64::from(u8::from(i % 3 == 0)))
            .collect();
        let fw = [0.55, 0.45];
        let aw = [1.0, 10.0, 12.0, 12.0];
        let indices: Vec<usize> = (0..n).collect();
        let mut gathered = Vec::new();
        gathered_linear_scores_into(
            &features,
            nf,
            &fw,
            &fairness,
            na,
            &aw,
            &indices,
            &mut gathered,
        );
        let mut dense = Vec::new();
        dot_rows_into(&features, nf, &fw, &mut dense);
        add_dot_rows_into(&fairness, na, &aw, &mut dense);
        assert_eq!(all_bits(&gathered), all_bits(&dense));
        // A shuffled gather is the dense value at each gathered row.
        let shuffled: Vec<usize> = (0..n).map(|i| (i * 7) % n).collect();
        gathered_linear_scores_into(
            &features,
            nf,
            &fw,
            &fairness,
            na,
            &aw,
            &shuffled,
            &mut gathered,
        );
        for (o, &i) in gathered.iter().zip(&shuffled) {
            assert_eq!(bits(*o), bits(dense[i]));
        }
    }

    #[test]
    fn col_sums_match_the_documented_order() {
        let dims = 2;
        let rows = 7;
        let matrix: Vec<f64> = (0..rows * dims).map(|i| 0.1 * i as f64).collect();
        let mut out = Vec::new();
        col_sums_into(&matrix, dims, &mut out);
        for d in 0..dims {
            let v = |r: usize| matrix[r * dims + d];
            let expected = ((v(0) + v(1)) + (v(2) + v(3))) + v(4) + v(5) + v(6);
            assert_eq!(bits(out[d]), bits(expected), "dim {d}");
        }
        // The gathered walk over 0..rows is the dense sum, bit for bit.
        let mut gathered = Vec::new();
        let n = col_sums_rows_into(dims, matrix.chunks_exact(dims), &mut gathered);
        assert_eq!(n, rows);
        assert_eq!(all_bits(&gathered), all_bits(&out));
        // And the generic-width path agrees with the specialized one.
        let mut generic = vec![0.0; dims];
        col_sums_generic(&matrix, dims, &mut generic);
        assert_eq!(all_bits(&generic), all_bits(&out));
    }

    #[test]
    fn count_ge_half_handles_every_tail() {
        for rows in 0..9_usize {
            let dims = 3;
            let matrix: Vec<f64> = (0..rows * dims)
                .map(|i| f64::from(u8::from(i % 2 == 0)))
                .collect();
            let expected = (0..rows).filter(|r| (r * dims) % 2 == 0).count();
            assert_eq!(count_ge_half(&matrix, dims, 0), expected, "rows {rows}");
        }
    }

    #[test]
    fn nan_rows_propagate_like_the_sequential_sum() {
        // A single standard NaN among dyadic values: the payload survives
        // any association, so the canonical order matches the sequential
        // sum bit-for-bit.
        let mut a = vec![0.5, 0.25, f64::NAN, 1.0, 2.0, 0.5, 4.0];
        let b = vec![1.0; 7];
        assert_eq!(bits(dot(&a, &b)), bits(sequential_dot(&a, &b)));
        a[2] = 1.5;
        a[5] = f64::NAN;
        assert_eq!(bits(dot(&a, &b)), bits(sequential_dot(&a, &b)));
    }
}
