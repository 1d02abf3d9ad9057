//! Dataset container: a schema plus the collection of objects to be ranked.
//!
//! Storage is **columnar** (structure-of-arrays): all feature vectors live in
//! one contiguous row-major matrix, all fairness vectors in another, with ids
//! and labels in parallel arrays. The DCA hot loop — effective-score
//! computation, centroids, selection metrics — therefore streams over dense
//! `f64` slices instead of chasing one heap allocation per object, which is
//! what makes the per-step cost truly sample-bounded in practice
//! (Section IV-D). Rows are exposed through the zero-copy [`ObjectView`];
//! the owned [`DataObject`] remains the construction-time input type.

use crate::attributes::SchemaRef;
use crate::error::{FairError, Result};
use crate::object::{DataObject, ObjectId, ObjectView};
use rand::seq::index::{sample_into, IndexBuffer};
use rand::Rng;

/// A collection of ranked objects sharing one [`crate::Schema`], stored
/// column-wise.
///
/// The dataset is the paper's set `O`. It offers the primitives every metric
/// and algorithm needs: fairness centroids (the `D_O` term of Definition 3),
/// uniform random samples (the `S` of Algorithm 1), and subset views.
#[derive(Debug, Clone)]
pub struct Dataset {
    schema: SchemaRef,
    ids: Vec<ObjectId>,
    /// Row-major `len × num_features` matrix of ranking features.
    features: Vec<f64>,
    /// Row-major `len × num_fairness` matrix of fairness attributes.
    fairness: Vec<f64>,
    labels: Vec<Option<bool>>,
}

impl Dataset {
    /// Create a dataset from a schema and objects.
    ///
    /// # Errors
    /// Returns an error if any object's vectors do not match the schema
    /// dimensionality. (Value-domain validation is the responsibility of the
    /// object constructors.)
    pub fn new(schema: SchemaRef, objects: Vec<DataObject>) -> Result<Self> {
        let mut dataset = Self::with_capacity(schema, objects.len());
        for o in objects {
            dataset.push(o)?;
        }
        Ok(dataset)
    }

    /// Create an empty dataset with the given schema.
    #[must_use]
    pub fn empty(schema: SchemaRef) -> Self {
        Self::with_capacity(schema, 0)
    }

    /// Assemble a dataset directly from its columns — the decode path of
    /// storage backends that persist the columnar layout as-is (e.g. the
    /// `fair-store` shard files). Lengths are validated against the schema;
    /// the *values* are trusted exactly like
    /// [`DataObject::new_unchecked`](crate::object::DataObject::new_unchecked)
    /// trusts its caller (integrity is the storage layer's checksum job).
    ///
    /// # Errors
    /// Returns a dimension error when any column's length is inconsistent
    /// with `ids.len()` rows under the schema.
    pub fn from_columns(
        schema: SchemaRef,
        ids: Vec<ObjectId>,
        features: Vec<f64>,
        fairness: Vec<f64>,
        labels: Vec<Option<bool>>,
    ) -> Result<Self> {
        let n = ids.len();
        if features.len() != n * schema.num_features() {
            return Err(FairError::DimensionMismatch {
                what: "feature matrix",
                expected: n * schema.num_features(),
                actual: features.len(),
            });
        }
        if fairness.len() != n * schema.num_fairness() {
            return Err(FairError::DimensionMismatch {
                what: "fairness matrix",
                expected: n * schema.num_fairness(),
                actual: fairness.len(),
            });
        }
        if labels.len() != n {
            return Err(FairError::DimensionMismatch {
                what: "label column",
                expected: n,
                actual: labels.len(),
            });
        }
        Ok(Self {
            schema,
            ids,
            features,
            fairness,
            labels,
        })
    }

    /// Create an empty dataset with room for `capacity` objects.
    #[must_use]
    pub fn with_capacity(schema: SchemaRef, capacity: usize) -> Self {
        let nf = schema.num_features();
        let na = schema.num_fairness();
        Self {
            schema,
            ids: Vec::with_capacity(capacity),
            features: Vec::with_capacity(capacity * nf),
            fairness: Vec::with_capacity(capacity * na),
            labels: Vec::with_capacity(capacity),
        }
    }

    /// The shared schema.
    #[must_use]
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Number of objects.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the dataset holds no objects.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The contiguous row-major `len × num_features` feature matrix.
    #[must_use]
    pub fn features_matrix(&self) -> &[f64] {
        &self.features
    }

    /// The contiguous row-major `len × num_fairness` fairness matrix.
    #[must_use]
    pub fn fairness_matrix(&self) -> &[f64] {
        &self.fairness
    }

    /// The object ids, in insertion order.
    #[must_use]
    pub fn ids(&self) -> &[ObjectId] {
        &self.ids
    }

    /// The labels, in insertion order.
    #[must_use]
    pub fn labels(&self) -> &[Option<bool>] {
        &self.labels
    }

    /// The feature row of object `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    #[must_use]
    pub fn feature_row(&self, i: usize) -> &[f64] {
        let w = self.schema.num_features();
        &self.features[i * w..i * w + w]
    }

    /// The fairness row of object `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    #[must_use]
    pub fn fairness_row(&self, i: usize) -> &[f64] {
        let w = self.schema.num_fairness();
        &self.fairness[i * w..i * w + w]
    }

    /// Zero-copy view of the object at index `i` (insertion order).
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    #[must_use]
    pub fn row(&self, i: usize) -> ObjectView<'_> {
        ObjectView::new(
            self.ids[i],
            self.feature_row(i),
            self.fairness_row(i),
            self.labels[i],
        )
    }

    /// Iterate over all objects, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = ObjectView<'_>> + '_ {
        (0..self.len()).map(move |i| self.row(i))
    }

    /// Append an object (copying its vectors into the column store).
    ///
    /// # Errors
    /// Returns an error if the object's vectors do not match the schema.
    pub fn push(&mut self, object: DataObject) -> Result<()> {
        if object.features().len() != self.schema.num_features() {
            return Err(FairError::DimensionMismatch {
                what: "feature vector",
                expected: self.schema.num_features(),
                actual: object.features().len(),
            });
        }
        if object.fairness().len() != self.schema.num_fairness() {
            return Err(FairError::DimensionMismatch {
                what: "fairness vector",
                expected: self.schema.num_fairness(),
                actual: object.fairness().len(),
            });
        }
        self.ids.push(object.id());
        self.features.extend_from_slice(object.features());
        self.fairness.extend_from_slice(object.fairness());
        self.labels.push(object.label());
        Ok(())
    }

    /// Remove every object, retaining the allocated capacity — the gather
    /// buffer reset of the sharded-sampling DCA loop.
    pub fn clear(&mut self) {
        self.ids.clear();
        self.features.clear();
        self.fairness.clear();
        self.labels.clear();
    }

    /// Copy one row view into this one — a row a storage backend decoded or
    /// a fleet worker sent. Rows of another dataset are gathered by
    /// [`Dataset::extend_from_rows`].
    ///
    /// # Panics
    /// Panics if the view's dimensions differ from this dataset's schema.
    pub fn push_row(&mut self, view: ObjectView<'_>) {
        assert_eq!(view.features().len(), self.schema.num_features());
        assert_eq!(view.fairness().len(), self.schema.num_fairness());
        self.ids.push(view.id());
        self.features.extend_from_slice(view.features());
        self.fairness.extend_from_slice(view.fairness());
        self.labels.push(view.label());
    }

    /// Append the rows of `source` at the indices `rows` yields, in order —
    /// the one in-memory row gather: each serial DCA step's sample, each
    /// shard run of [`crate::ShardSource::gather_rows`]' default, a paged
    /// store's resident shards and [`Dataset::subset`]. Each column is
    /// copied in its own pass, and matrices of one to four columns through
    /// fixed-width row copies, so the random reads of consecutive rows
    /// overlap instead of waiting behind a `memcpy` call per row. With
    /// `with_ids` false the id column is not read and every appended id is
    /// 0, for a caller that knows nothing reads them (a DCA step under a
    /// plain linear ranker skips one random read per sampled row).
    ///
    /// # Panics
    /// Panics if the schemas' dimensions differ or an index is out of bounds.
    pub fn extend_from_rows<I>(&mut self, source: &Dataset, rows: I, with_ids: bool)
    where
        I: ExactSizeIterator<Item = usize> + Clone,
    {
        let (nf, na) = (self.schema.num_features(), self.schema.num_fairness());
        assert_eq!(nf, source.schema.num_features());
        assert_eq!(na, source.schema.num_fairness());
        if with_ids {
            self.ids.extend(rows.clone().map(|i| source.ids[i]));
        } else {
            self.ids.resize(self.ids.len() + rows.len(), ObjectId(0));
        }
        gather_matrix_rows(&source.features, nf, rows.clone(), &mut self.features);
        gather_matrix_rows(&source.fairness, na, rows.clone(), &mut self.fairness);
        self.labels.extend(rows.map(|i| source.labels[i]));
    }

    /// Look up an object by id (linear scan; datasets are typically iterated,
    /// not point-queried).
    #[must_use]
    pub fn get_by_id(&self, id: ObjectId) -> Option<ObjectView<'_>> {
        self.ids
            .iter()
            .position(|&i| i == id)
            .map(|pos| self.row(pos))
    }

    /// Replace the label of object `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    pub fn set_label(&mut self, i: usize, label: Option<bool>) {
        self.labels[i] = label;
    }

    /// Centroid of the fairness attributes over the whole dataset — the
    /// `D_O` term of Definition 3.
    ///
    /// # Errors
    /// Returns [`FairError::EmptyDataset`] on an empty dataset.
    pub fn fairness_centroid(&self) -> Result<Vec<f64>> {
        let mut out = Vec::new();
        self.fairness_centroid_into(&mut out)?;
        Ok(out)
    }

    /// [`Dataset::fairness_centroid`] writing into a caller-provided buffer.
    ///
    /// # Errors
    /// Returns [`FairError::EmptyDataset`] on an empty dataset.
    pub fn fairness_centroid_into(&self, out: &mut Vec<f64>) -> Result<()> {
        if self.is_empty() {
            return Err(FairError::EmptyDataset);
        }
        let dims = self.schema.num_fairness();
        if dims == 0 {
            out.clear();
            return Ok(());
        }
        // One dense pass over the fairness matrix; the kernel's row order is
        // the same as a gathered walk over 0..len, so views agree bit-wise.
        crate::kernel::col_sums_into(&self.fairness, dims, out);
        let n = self.len() as f64;
        for a in out.iter_mut() {
            *a /= n;
        }
        Ok(())
    }

    /// Centroid of the fairness attributes over a subset of object indices —
    /// the `D_k` term of Definition 3 when the indices are a top-k selection.
    ///
    /// # Errors
    /// Returns [`FairError::EmptyDataset`] when `indices` is empty.
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn fairness_centroid_of(&self, indices: &[usize]) -> Result<Vec<f64>> {
        let mut out = Vec::new();
        centroid_rows_into(
            self.schema.num_fairness(),
            indices.iter().map(|&i| self.fairness_row(i)),
            &mut out,
        )?;
        Ok(out)
    }

    /// Fraction of objects belonging to the (binary) group at fairness index
    /// `dim`, i.e. with value `>= 0.5`.
    #[must_use]
    pub fn group_frequency(&self, dim: usize) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let w = self.schema.num_fairness();
        if dim >= w {
            return 0.0;
        }
        let count = crate::kernel::count_ge_half(&self.fairness, w, dim);
        count as f64 / self.len() as f64
    }

    /// Frequency of the *rarest* fairness group — the `r` of the paper's
    /// sample-size rule `O(max(1/k, 1/r))` (Section IV-D).
    #[must_use]
    pub fn rarest_group_frequency(&self) -> f64 {
        (0..self.schema.num_fairness())
            .map(|d| self.group_frequency(d))
            .filter(|f| *f > 0.0)
            .fold(1.0_f64, f64::min)
    }

    /// Draw a uniform random sample (without replacement) of `size` objects.
    /// When `size >= len()` the whole dataset is returned (in index order).
    ///
    /// # Errors
    /// Returns [`FairError::EmptyDataset`] on an empty dataset and
    /// [`FairError::InvalidConfig`] when `size == 0`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, size: usize) -> Result<SampleView<'_>> {
        let mut buf = IndexBuffer::new();
        self.sample_indices_into(rng, size, &mut buf)?;
        Ok(SampleView {
            dataset: self,
            indices: buf.into_vec(),
        })
    }

    /// Allocation-free variant of [`Dataset::sample`]: draw the sampled
    /// indices into a reusable [`IndexBuffer`] — the draw of every serial
    /// Core DCA and refinement step, which then copies the rows into a
    /// reused block.
    ///
    /// The index sequence is identical to [`Dataset::sample`] for the same RNG
    /// state, so sampled experiments are reproducible across both entry
    /// points.
    ///
    /// # Errors
    /// Returns [`FairError::EmptyDataset`] on an empty dataset and
    /// [`FairError::InvalidConfig`] when `size == 0`.
    pub fn sample_indices_into<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        size: usize,
        buf: &mut IndexBuffer,
    ) -> Result<()> {
        if self.is_empty() {
            return Err(FairError::EmptyDataset);
        }
        if size == 0 {
            return Err(FairError::InvalidConfig {
                reason: "sample size must be positive".into(),
            });
        }
        if size >= self.len() {
            buf.fill_sequential(self.len());
        } else {
            sample_into(rng, self.len(), size, buf);
        }
        Ok(())
    }

    /// Borrow the whole dataset as a [`SampleView`] (used by Full DCA, which
    /// never samples).
    #[must_use]
    pub fn full_view(&self) -> SampleView<'_> {
        SampleView {
            dataset: self,
            indices: (0..self.len()).collect(),
        }
    }

    /// Build a new dataset containing only the objects selected by `predicate`
    /// (e.g. one school district). Ids are preserved.
    #[must_use]
    pub fn filter(&self, mut predicate: impl FnMut(ObjectView<'_>) -> bool) -> Dataset {
        let mut out = Self::with_capacity(self.schema.clone(), 0);
        for i in 0..self.len() {
            let view = self.row(i);
            if predicate(view) {
                out.push_row(view);
            }
        }
        out
    }

    /// Build a new dataset containing the objects at the given indices, in the
    /// given order. Ids are preserved.
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    #[must_use]
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let mut out = Self::with_capacity(self.schema.clone(), indices.len());
        out.extend_from_rows(self, indices.iter().copied(), true);
        out
    }

    /// Whether every object carries a ground-truth outcome label.
    #[must_use]
    pub fn fully_labelled(&self) -> bool {
        !self.is_empty() && self.labels.iter().all(Option::is_some)
    }
}

/// A borrowed view over a subset of a dataset's objects (a sample, a district,
/// or the full dataset) — what the serial metrics measure.
#[derive(Debug, Clone)]
pub struct SampleView<'a> {
    dataset: &'a Dataset,
    indices: Vec<usize>,
}

impl<'a> SampleView<'a> {
    /// Construct a view from explicit indices into `dataset`.
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    #[must_use]
    pub fn from_indices(dataset: &'a Dataset, indices: Vec<usize>) -> Self {
        for &i in &indices {
            assert!(
                i < dataset.len(),
                "index {i} out of bounds for dataset of {}",
                dataset.len()
            );
        }
        Self { dataset, indices }
    }

    /// The underlying dataset.
    #[must_use]
    pub fn dataset(&self) -> &'a Dataset {
        self.dataset
    }

    /// The schema of the underlying dataset.
    #[must_use]
    pub fn schema(&self) -> &'a SchemaRef {
        self.dataset.schema()
    }

    /// Indices (into the dataset) of the viewed objects.
    #[must_use]
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Number of objects in the view.
    #[must_use]
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Whether the view is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Iterate over the viewed objects.
    pub fn iter(&self) -> impl Iterator<Item = ObjectView<'a>> + '_ {
        self.indices.iter().map(move |&i| self.dataset.row(i))
    }

    /// The `i`-th object of the view.
    #[must_use]
    pub fn object(&self, i: usize) -> ObjectView<'a> {
        self.dataset.row(self.indices[i])
    }

    /// Fairness centroid over the whole view (`D_O` computed on a sample —
    /// Lemma 4.2's estimator).
    ///
    /// # Errors
    /// Returns [`FairError::EmptyDataset`] on an empty view.
    pub fn fairness_centroid(&self) -> Result<Vec<f64>> {
        let mut out = Vec::new();
        self.fairness_centroid_into(&mut out)?;
        Ok(out)
    }

    /// [`SampleView::fairness_centroid`] writing into a caller-provided
    /// buffer.
    ///
    /// # Errors
    /// Returns [`FairError::EmptyDataset`] on an empty view.
    pub fn fairness_centroid_into(&self, out: &mut Vec<f64>) -> Result<()> {
        centroid_rows_into(
            self.dataset.schema().num_fairness(),
            self.indices.iter().map(|&i| self.dataset.fairness_row(i)),
            out,
        )
    }

    /// Fairness centroid over a subset of *view positions* (not dataset
    /// indices) — used for the selected top-k of a sample (Lemma 4.4).
    ///
    /// # Errors
    /// Returns [`FairError::EmptyDataset`] when `positions` is empty.
    pub fn fairness_centroid_of(&self, positions: &[usize]) -> Result<Vec<f64>> {
        let mut out = Vec::new();
        centroid_rows_into(
            self.dataset.schema().num_fairness(),
            positions
                .iter()
                .map(|&p| self.dataset.fairness_row(self.indices[p])),
            &mut out,
        )?;
        Ok(out)
    }
}

/// Append rows `rows` of a row-major matrix of `width` columns to `out`, in
/// order. Widths 1-4 copy through fixed-size arrays: on a 2-vCPU VM, 500
/// random rows of a 1M-row cohort took 5.1 µs for the school matrices (2 and
/// 4 columns) against 12.1 µs with a `copy_from_slice` per row.
fn gather_matrix_rows(
    matrix: &[f64],
    width: usize,
    rows: impl ExactSizeIterator<Item = usize>,
    out: &mut Vec<f64>,
) {
    let start = out.len();
    out.resize(start + rows.len() * width, 0.0);
    let dst = &mut out[start..];
    match width {
        0 => {}
        1 => copy_fixed_rows::<1>(matrix, rows, dst),
        2 => copy_fixed_rows::<2>(matrix, rows, dst),
        3 => copy_fixed_rows::<3>(matrix, rows, dst),
        4 => copy_fixed_rows::<4>(matrix, rows, dst),
        _ => {
            for (d, i) in dst.chunks_exact_mut(width).zip(rows) {
                d.copy_from_slice(&matrix[i * width..(i + 1) * width]);
            }
        }
    }
}

/// [`gather_matrix_rows`] at the compile-time width `W`.
fn copy_fixed_rows<const W: usize>(
    matrix: &[f64],
    rows: impl Iterator<Item = usize>,
    dst: &mut [f64],
) {
    for (d, i) in dst.chunks_exact_mut(W).zip(rows) {
        let d: &mut [f64; W] = d.try_into().expect("chunk of the fixed width");
        *d = matrix[i * W..(i + 1) * W]
            .try_into()
            .expect("row of the fixed width");
    }
}

/// Mean of an iterator of equally sized fairness rows, written into `out` —
/// accumulated by [`crate::kernel::col_sums_rows_into`], so gathered
/// centroids share the canonical kernel order with the dense path.
pub(crate) fn centroid_rows_into<'a>(
    dims: usize,
    rows: impl Iterator<Item = &'a [f64]>,
    out: &mut Vec<f64>,
) -> Result<()> {
    let n = if dims == 0 {
        out.clear();
        rows.count()
    } else {
        crate::kernel::col_sums_rows_into(dims, rows, out)
    };
    if n == 0 {
        return Err(FairError::EmptyDataset);
    }
    for a in out.iter_mut() {
        *a /= n as f64;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::Schema;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn schema() -> SchemaRef {
        Schema::from_names(&["score"], &["a", "b"], &[]).unwrap()
    }

    fn make_dataset() -> Dataset {
        let s = schema();
        let objects = vec![
            DataObject::new_unchecked(0, vec![1.0], vec![1.0, 0.0], Some(true)),
            DataObject::new_unchecked(1, vec![2.0], vec![0.0, 1.0], Some(false)),
            DataObject::new_unchecked(2, vec![3.0], vec![1.0, 1.0], Some(true)),
            DataObject::new_unchecked(3, vec![4.0], vec![0.0, 0.0], Some(false)),
        ];
        Dataset::new(s, objects).unwrap()
    }

    #[test]
    fn centroid_is_mean_of_fairness_vectors() {
        let d = make_dataset();
        let c = d.fairness_centroid().unwrap();
        assert_eq!(c, vec![0.5, 0.5]);
    }

    #[test]
    fn centroid_of_subset() {
        let d = make_dataset();
        let c = d.fairness_centroid_of(&[0, 2]).unwrap();
        assert_eq!(c, vec![1.0, 0.5]);
    }

    #[test]
    fn empty_centroid_is_error() {
        let d = Dataset::empty(schema());
        assert!(matches!(
            d.fairness_centroid(),
            Err(FairError::EmptyDataset)
        ));
    }

    #[test]
    fn columnar_storage_exposes_contiguous_rows() {
        let d = make_dataset();
        assert_eq!(d.features_matrix(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(d.fairness_matrix().len(), 8);
        assert_eq!(d.feature_row(2), &[3.0]);
        assert_eq!(d.fairness_row(2), &[1.0, 1.0]);
        let row = d.row(1);
        assert_eq!(row.id(), ObjectId(1));
        assert_eq!(row.features(), &[2.0]);
        assert_eq!(row.fairness(), &[0.0, 1.0]);
        assert_eq!(row.label(), Some(false));
        assert_eq!(d.iter().count(), 4);
    }

    #[test]
    fn group_frequency_and_rarest() {
        let d = make_dataset();
        assert!((d.group_frequency(0) - 0.5).abs() < 1e-12);
        assert!((d.group_frequency(1) - 0.5).abs() < 1e-12);
        assert!((d.rarest_group_frequency() - 0.5).abs() < 1e-12);
        assert_eq!(d.group_frequency(99), 0.0);
    }

    #[test]
    fn sample_without_replacement_has_unique_indices() {
        let d = make_dataset();
        let mut rng = StdRng::seed_from_u64(42);
        let view = d.sample(&mut rng, 3).unwrap();
        assert_eq!(view.len(), 3);
        let mut idx = view.indices().to_vec();
        idx.sort_unstable();
        idx.dedup();
        assert_eq!(idx.len(), 3, "indices must be unique");
    }

    #[test]
    fn extend_from_rows_copies_rows_in_order_at_every_width() {
        for (nf, na) in [(1, 1), (2, 3), (4, 5), (6, 2)] {
            let features: Vec<String> = (0..nf).map(|j| format!("f{j}")).collect();
            let fairness: Vec<String> = (0..na).map(|j| format!("a{j}")).collect();
            let features: Vec<&str> = features.iter().map(String::as_str).collect();
            let fairness: Vec<&str> = fairness.iter().map(String::as_str).collect();
            let schema = Schema::from_names(&features, &fairness, &[]).unwrap();
            let objects = (0..9_u64)
                .map(|i| {
                    let x = i as f64;
                    DataObject::new_unchecked(
                        100 + i,
                        (0..nf).map(|j| x * 10.0 + j as f64).collect(),
                        (0..na).map(|j| x + j as f64 / 8.0).collect(),
                        (i % 3 != 0).then_some(i % 2 == 0),
                    )
                })
                .collect();
            let source = Dataset::new(schema.clone(), objects).unwrap();
            let rows = [7, 0, 7, 3];
            let mut block = Dataset::empty(schema);
            block.extend_from_rows(&source, rows[..1].iter().copied(), true);
            block.extend_from_rows(&source, rows[1..].iter().copied(), true);
            assert_eq!(block.len(), rows.len());
            for (r, &i) in rows.iter().enumerate() {
                assert_eq!(block.row(r), source.row(i), "widths {nf}/{na}, row {r}");
            }
            block.clear();
            block.extend_from_rows(&source, rows.iter().copied(), false);
            assert!(block.ids().iter().all(|id| id.0 == 0), "ids left out");
            for (r, &i) in rows.iter().enumerate() {
                assert_eq!(block.feature_row(r), source.feature_row(i));
                assert_eq!(block.fairness_row(r), source.fairness_row(i));
                assert_eq!(block.labels()[r], source.labels()[i]);
            }
        }
    }

    #[test]
    fn sample_into_matches_owning_sample_for_equal_seeds() {
        let d = {
            let s = schema();
            let objects = (0..200_u64)
                .map(|i| DataObject::new_unchecked(i, vec![i as f64], vec![0.0, 1.0], None))
                .collect();
            Dataset::new(s, objects).unwrap()
        };
        let mut rng_a = StdRng::seed_from_u64(7);
        let mut rng_b = StdRng::seed_from_u64(7);
        let mut buf = IndexBuffer::new();
        for size in [3, 20, 150, 500] {
            let owned = d.sample(&mut rng_a, size).unwrap();
            d.sample_indices_into(&mut rng_b, size, &mut buf).unwrap();
            assert_eq!(owned.indices(), buf.as_slice(), "size {size}");
        }
    }

    #[test]
    fn oversized_sample_returns_whole_dataset() {
        let d = make_dataset();
        let mut rng = StdRng::seed_from_u64(1);
        let view = d.sample(&mut rng, 100).unwrap();
        assert_eq!(view.len(), d.len());
    }

    #[test]
    fn zero_sample_size_is_error() {
        let d = make_dataset();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(d.sample(&mut rng, 0).is_err());
    }

    #[test]
    fn sample_from_empty_dataset_is_error() {
        let d = Dataset::empty(schema());
        let mut rng = StdRng::seed_from_u64(1);
        assert!(matches!(
            d.sample(&mut rng, 5),
            Err(FairError::EmptyDataset)
        ));
    }

    #[test]
    fn view_centroid_matches_dataset_for_full_view() {
        let d = make_dataset();
        let v = d.full_view();
        assert_eq!(
            v.fairness_centroid().unwrap(),
            d.fairness_centroid().unwrap()
        );
        assert_eq!(v.len(), d.len());
    }

    #[test]
    fn view_positions_are_view_relative() {
        let d = make_dataset();
        let v = SampleView::from_indices(&d, vec![3, 0]);
        // Position 0 of the view is dataset object 3.
        assert_eq!(v.object(0).id(), ObjectId(3));
        let c = v.fairness_centroid_of(&[0]).unwrap();
        assert_eq!(c, vec![0.0, 0.0]);
    }

    #[test]
    fn filter_preserves_ids_and_schema() {
        let d = make_dataset();
        let filtered = d.filter(|o| o.label() == Some(true));
        assert_eq!(filtered.len(), 2);
        assert!(filtered.get_by_id(ObjectId(0)).is_some());
        assert!(filtered.get_by_id(ObjectId(1)).is_none());
    }

    #[test]
    fn subset_gathers_rows_in_order() {
        let d = make_dataset();
        let s = d.subset(&[2, 0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.row(0).id(), ObjectId(2));
        assert_eq!(s.row(1).id(), ObjectId(0));
        assert_eq!(s.feature_row(0), d.feature_row(2));
    }

    #[test]
    fn push_validates_dimensions() {
        let mut d = make_dataset();
        let bad = DataObject::new_unchecked(9, vec![1.0, 2.0], vec![0.0, 1.0], None);
        assert!(d.push(bad).is_err());
        let good = DataObject::new_unchecked(9, vec![1.0], vec![0.0, 1.0], None);
        assert!(d.push(good).is_ok());
        assert_eq!(d.len(), 5);
    }

    #[test]
    fn fully_labelled_detection() {
        let d = make_dataset();
        assert!(d.fully_labelled());
        let mut d2 = d.clone();
        d2.push(DataObject::new_unchecked(
            10,
            vec![1.0],
            vec![0.0, 0.0],
            None,
        ))
        .unwrap();
        assert!(!d2.fully_labelled());
        d2.set_label(4, Some(true));
        assert!(d2.fully_labelled());
        assert!(!Dataset::empty(schema()).fully_labelled());
    }

    #[test]
    fn dataset_rejects_mismatched_objects_at_construction() {
        let s = schema();
        let bad = vec![DataObject::new_unchecked(0, vec![1.0], vec![1.0], None)];
        assert!(Dataset::new(s, bad).is_err());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn view_from_bad_indices_panics() {
        let d = make_dataset();
        let _ = SampleView::from_indices(&d, vec![99]);
    }
}
