//! The [`Relation`] container: a densely packed, key-sorted array of tuples.
//!
//! This mirrors the storage format of Diamos et al. used by the paper: a
//! relation is a dense array of fixed-width tuples maintained in strict weak
//! order on the key attributes, which enables the binary-search partitioning
//! used by the multi-stage GPU skeletons.

use std::cmp::Ordering;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use crate::{compare_words, RelationalError, Result, Schema, Value};

/// A relation: a schema plus a densely packed, key-sorted tuple array.
///
/// Tuples are stored row-major, one `u64` word per attribute. The invariant
/// maintained by every constructor and operator is that tuples are sorted by
/// their key attributes under the total order of [`compare_words`].
///
/// The words live in an immutable buffer shared by reference count, of
/// which a relation sees one contiguous word range. Cloning a relation and
/// taking a row range with [`Relation::slice_rows`] are O(1) and copy no
/// tuples; only constructors allocate a new buffer.
///
/// # Examples
///
/// ```
/// use kw_relational::{Relation, Schema, AttrType, Value};
/// let schema = Schema::new(vec![AttrType::U32, AttrType::U32], 1);
/// let rel = Relation::from_rows(
///     schema,
///     &[vec![Value::U32(3), Value::U32(30)], vec![Value::U32(1), Value::U32(10)]],
/// )?;
/// assert_eq!(rel.len(), 2);
/// // Stored sorted by key:
/// assert_eq!(rel.value(0, 0), Value::U32(1));
/// # Ok::<(), kw_relational::RelationalError>(())
/// ```
#[derive(Clone)]
pub struct Relation {
    schema: Schema,
    buf: Arc<Vec<u64>>,
    /// The word range of `buf` holding this relation's tuples.
    span: Range<usize>,
}

impl Relation {
    /// Take ownership of `data` as a new shared buffer (no copy).
    fn owned(schema: Schema, data: Vec<u64>) -> Relation {
        let span = 0..data.len();
        Relation {
            schema,
            buf: Arc::new(data),
            span,
        }
    }

    /// Create an empty relation with the given schema.
    pub fn empty(schema: Schema) -> Relation {
        Relation::owned(schema, Vec::new())
    }

    /// Build a relation from raw words, sorting by key.
    ///
    /// # Errors
    ///
    /// Returns [`RelationalError::MalformedData`] if `data.len()` is not a
    /// multiple of the schema arity.
    pub fn from_words(schema: Schema, mut data: Vec<u64>) -> Result<Relation> {
        let arity = schema.arity();
        if !data.len().is_multiple_of(arity) {
            return Err(RelationalError::MalformedData {
                words: data.len(),
                arity,
            });
        }
        sort_words(&schema, &mut data);
        Ok(Relation::owned(schema, data))
    }

    /// Build a relation from raw words that are already key-sorted.
    ///
    /// # Errors
    ///
    /// Returns [`RelationalError::MalformedData`] on a word-count mismatch
    /// and [`RelationalError::NotSorted`] if the data violates key order.
    pub fn from_sorted_words(schema: Schema, data: Vec<u64>) -> Result<Relation> {
        let arity = schema.arity();
        if !data.len().is_multiple_of(arity) {
            return Err(RelationalError::MalformedData {
                words: data.len(),
                arity,
            });
        }
        let rel = Relation::owned(schema, data);
        if let Some(index) = rel.first_unsorted() {
            return Err(RelationalError::NotSorted { index });
        }
        Ok(rel)
    }

    /// Build a relation from typed rows, sorting by key.
    ///
    /// # Errors
    ///
    /// Returns [`RelationalError::MalformedData`] if a row's length differs
    /// from the schema arity, and [`RelationalError::TypeMismatch`] if a
    /// value's type differs from the schema's attribute type.
    pub fn from_rows(schema: Schema, rows: &[Vec<Value>]) -> Result<Relation> {
        let arity = schema.arity();
        let mut data = Vec::with_capacity(rows.len() * arity);
        for row in rows {
            if row.len() != arity {
                return Err(RelationalError::MalformedData {
                    words: row.len(),
                    arity,
                });
            }
            for (i, v) in row.iter().enumerate() {
                if v.attr_type() != schema.attr(i) {
                    return Err(RelationalError::TypeMismatch {
                        expected: schema.attr(i),
                        found: v.attr_type(),
                    });
                }
                data.push(v.encode());
            }
        }
        Relation::from_words(schema, data)
    }

    /// The schema of this relation.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        if self.span.is_empty() {
            0
        } else {
            self.span.len() / self.schema.arity()
        }
    }

    /// Whether the relation contains no tuples.
    pub fn is_empty(&self) -> bool {
        self.span.is_empty()
    }

    /// The tuples at indices `rows`, as a relation sharing this one's
    /// buffer: O(1), no tuple is copied. A contiguous range of a key-sorted
    /// relation is key-sorted, so the slice needs no re-validation.
    ///
    /// The slice keeps the whole parent buffer alive for as long as it (or
    /// any clone of it) lives, however few rows it covers.
    ///
    /// # Errors
    ///
    /// Returns [`RelationalError::RowRangeOutOfBounds`] if `rows` is
    /// inverted or ends past [`Relation::len`].
    pub fn slice_rows(&self, rows: Range<usize>) -> Result<Relation> {
        let len = self.len();
        if rows.start > rows.end || rows.end > len {
            return Err(RelationalError::RowRangeOutOfBounds {
                start: rows.start,
                end: rows.end,
                len,
            });
        }
        let arity = self.schema.arity();
        let first = self.span.start + rows.start * arity;
        let slice = Relation {
            schema: self.schema.clone(),
            buf: Arc::clone(&self.buf),
            span: first..first + rows.len() * arity,
        };
        debug_assert!(slice.is_sorted());
        Ok(slice)
    }

    /// Total packed size on the device, in bytes.
    pub fn byte_size(&self) -> usize {
        self.len() * self.schema.tuple_bytes()
    }

    /// Raw word storage (row-major).
    pub fn words(&self) -> &[u64] {
        &self.buf[self.span.clone()]
    }

    /// The raw words of tuple `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn tuple(&self, i: usize) -> &[u64] {
        let a = self.schema.arity();
        &self.words()[i * a..(i + 1) * a]
    }

    /// The decoded value of attribute `attr` of tuple `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `attr` is out of bounds.
    pub fn value(&self, i: usize, attr: usize) -> Value {
        Value::decode(self.tuple(i)[attr], self.schema.attr(attr))
    }

    /// Iterate over tuples as raw word slices.
    pub fn iter(&self) -> impl Iterator<Item = &[u64]> + '_ {
        self.words().chunks_exact(self.schema.arity().max(1))
    }

    /// Compare the keys of two raw tuples under this relation's schema.
    pub fn compare_keys(&self, a: &[u64], b: &[u64]) -> Ordering {
        compare_keys(&self.schema, a, b)
    }

    /// Index of the first tuple whose key is `>=` the key of `probe`
    /// (lower bound by binary search). `probe` needs only `key_arity` words.
    pub fn lower_bound(&self, probe: &[u64]) -> usize {
        self.bound(probe, true)
    }

    /// Index of the first tuple whose key is `>` the key of `probe`
    /// (upper bound by binary search).
    pub fn upper_bound(&self, probe: &[u64]) -> usize {
        self.bound(probe, false)
    }

    fn bound(&self, probe: &[u64], lower: bool) -> usize {
        let mut lo = 0usize;
        let mut hi = self.len();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let ord = compare_key_to_probe(&self.schema, self.tuple(mid), probe);
            let go_right = if lower {
                ord == Ordering::Less
            } else {
                ord != Ordering::Greater
            };
            if go_right {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// First index (if any) violating key sort order.
    fn first_unsorted(&self) -> Option<usize> {
        (1..self.len()).find(|&i| {
            compare_keys(&self.schema, self.tuple(i - 1), self.tuple(i)) == Ordering::Greater
        })
    }

    /// Whether the key-sorted invariant holds (always true for relations
    /// produced by this crate; exposed for tests and debugging).
    pub fn is_sorted(&self) -> bool {
        self.first_unsorted().is_none()
    }

    /// Collect the rows as decoded values (convenience for tests).
    pub fn to_rows(&self) -> Vec<Vec<Value>> {
        (0..self.len())
            .map(|i| (0..self.schema.arity()).map(|a| self.value(i, a)).collect())
            .collect()
    }
}

/// Relations are equal when their schemas and tuple words are, whichever
/// buffer or offset holds the words.
impl PartialEq for Relation {
    fn eq(&self, other: &Relation) -> bool {
        self.schema == other.schema && self.words() == other.words()
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Relation{} [{} tuples]", self.schema, self.len())?;
        let show = self.len().min(8);
        for i in 0..show {
            write!(f, "\n  (")?;
            for a in 0..self.schema.arity() {
                if a > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", self.value(i, a))?;
            }
            write!(f, ")")?;
        }
        if self.len() > show {
            write!(f, "\n  ... {} more", self.len() - show)?;
        }
        Ok(())
    }
}

/// Compare the key attributes of two raw tuples under `schema`.
pub fn compare_keys(schema: &Schema, a: &[u64], b: &[u64]) -> Ordering {
    for k in 0..schema.key_arity() {
        let ord = compare_words(a[k], b[k], schema.attr(k));
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Compare the full tuples (all attributes) of two raw tuples.
pub fn compare_tuples(schema: &Schema, a: &[u64], b: &[u64]) -> Ordering {
    for k in 0..schema.arity() {
        let ord = compare_words(a[k], b[k], schema.attr(k));
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Compare a tuple's key against a probe key that may be shorter than the
/// full key (prefix comparison over `probe.len()` attributes).
fn compare_key_to_probe(schema: &Schema, tuple: &[u64], probe: &[u64]) -> Ordering {
    let n = probe.len().min(schema.key_arity());
    for k in 0..n {
        let ord = compare_words(tuple[k], probe[k], schema.attr(k));
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Sort raw tuple words in place by key, then by the remaining attributes to
/// make operator outputs deterministic.
pub(crate) fn sort_words(schema: &Schema, data: &mut Vec<u64>) {
    let arity = schema.arity();
    if arity == 0 || data.is_empty() {
        return;
    }
    // Most operator outputs are produced in order; a stable sort would
    // leave them byte-identical, so a linear check replaces it.
    let in_order = data
        .chunks_exact(arity)
        .zip(data.chunks_exact(arity).skip(1))
        .all(|(a, b)| compare_tuples(schema, a, b) != Ordering::Greater);
    if in_order {
        return;
    }
    let mut tuples: Vec<&[u64]> = data.chunks_exact(arity).collect();
    tuples.sort_by(|a, b| compare_tuples(schema, a, b));
    let sorted: Vec<u64> = tuples.into_iter().flatten().copied().collect();
    *data = sorted;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AttrType;

    fn schema2() -> Schema {
        Schema::new(vec![AttrType::U32, AttrType::U32], 1)
    }

    #[test]
    fn sorts_on_construction() {
        let r = Relation::from_words(schema2(), vec![5, 50, 1, 10, 3, 30]).unwrap();
        assert!(r.is_sorted());
        assert_eq!(r.tuple(0), &[1, 10]);
        assert_eq!(r.tuple(2), &[5, 50]);
    }

    #[test]
    fn from_sorted_rejects_unsorted() {
        let err = Relation::from_sorted_words(schema2(), vec![5, 50, 1, 10]).unwrap_err();
        assert_eq!(err, RelationalError::NotSorted { index: 1 });
    }

    #[test]
    fn malformed_data_rejected() {
        assert!(matches!(
            Relation::from_words(schema2(), vec![1, 2, 3]),
            Err(RelationalError::MalformedData { .. })
        ));
    }

    #[test]
    fn from_rows_type_checks() {
        let rows = vec![vec![Value::U32(1), Value::F32(1.0)]];
        assert!(matches!(
            Relation::from_rows(schema2(), &rows),
            Err(RelationalError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn bounds() {
        let r = Relation::from_words(schema2(), vec![1, 0, 3, 0, 3, 1, 7, 0]).unwrap();
        assert_eq!(r.lower_bound(&[3]), 1);
        assert_eq!(r.upper_bound(&[3]), 3);
        assert_eq!(r.lower_bound(&[0]), 0);
        assert_eq!(r.lower_bound(&[8]), 4);
    }

    #[test]
    fn byte_size_uses_packed_widths() {
        let s = Schema::new(vec![AttrType::U32, AttrType::Bool], 1);
        let r = Relation::from_words(s, vec![1, 1, 2, 0]).unwrap();
        assert_eq!(r.byte_size(), 2 * 5);
    }

    #[test]
    fn empty_relation() {
        let r = Relation::empty(schema2());
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        assert!(r.is_sorted());
        assert_eq!(r.lower_bound(&[1]), 0);
    }

    #[test]
    fn debug_nonempty() {
        let r = Relation::empty(schema2());
        assert!(!format!("{r:?}").is_empty());
    }

    fn four_rows() -> Relation {
        Relation::from_words(schema2(), vec![1, 10, 2, 20, 3, 30, 4, 40]).unwrap()
    }

    #[test]
    fn slice_rows_empty_and_full() {
        let r = four_rows();
        let none = r.slice_rows(2..2).unwrap();
        assert!(none.is_empty());
        assert_eq!(none.len(), 0);
        assert_eq!(none, Relation::empty(schema2()));
        let all = r.slice_rows(0..4).unwrap();
        assert_eq!(all, r);
        assert_eq!(all.words(), r.words());
    }

    #[test]
    fn slice_of_slice() {
        let r = four_rows();
        let mid = r.slice_rows(1..4).unwrap();
        assert_eq!(mid.words(), &[2, 20, 3, 30, 4, 40]);
        let inner = mid.slice_rows(1..2).unwrap();
        assert_eq!(inner.len(), 1);
        assert_eq!(inner.tuple(0), &[3, 30]);
        assert_eq!(inner.value(0, 1), Value::U32(30));
        assert_eq!(inner.lower_bound(&[3]), 0);
        assert_eq!(inner.upper_bound(&[3]), 1);
        assert_eq!(inner.iter().count(), 1);
        assert!(inner.is_sorted());
    }

    #[test]
    fn slice_rows_rejects_bad_ranges() {
        let r = four_rows();
        assert_eq!(
            r.slice_rows(3..5).unwrap_err(),
            RelationalError::RowRangeOutOfBounds {
                start: 3,
                end: 5,
                len: 4
            }
        );
        #[allow(clippy::reversed_empty_ranges)]
        let inverted = 3..1;
        assert!(matches!(
            r.slice_rows(inverted),
            Err(RelationalError::RowRangeOutOfBounds { .. })
        ));
        let tail = r.slice_rows(2..4).unwrap();
        assert!(matches!(
            tail.slice_rows(0..3),
            Err(RelationalError::RowRangeOutOfBounds { len: 2, .. })
        ));
    }

    #[test]
    fn slice_equals_owned_copy() {
        let r = four_rows();
        let slice = r.slice_rows(1..3).unwrap();
        let owned = Relation::from_sorted_words(schema2(), vec![2, 20, 3, 30]).unwrap();
        assert_eq!(slice, owned);
        assert_eq!(owned, slice);
        assert_ne!(slice, r.slice_rows(0..2).unwrap());
        // Same words under a different key arity is a different relation.
        let rekeyed = Schema::new(vec![AttrType::U32, AttrType::U32], 2);
        assert_ne!(
            slice,
            Relation::from_sorted_words(rekeyed, vec![2, 20, 3, 30]).unwrap()
        );
    }

    /// Reference order: a full-tuple sort of a copy, never short-circuited.
    fn reference_sort(schema: &Schema, data: &[u64]) -> Vec<u64> {
        let mut tuples: Vec<&[u64]> = data.chunks_exact(schema.arity()).collect();
        tuples.sort_by(|a, b| compare_tuples(schema, a, b));
        tuples.concat()
    }

    /// F32 words including NaN, both zeros and their neighbours, so that
    /// `total_cmp` order (not `==`) decides.
    fn f32_word(pick: u64) -> u64 {
        const SPECIAL: [f32; 6] = [f32::NAN, -0.0, 0.0, -1.5, 1.5, f32::INFINITY];
        u64::from(SPECIAL[pick as usize].to_bits())
    }

    /// Arrange generated words before `from_words`: 0 random, 1 sorted,
    /// 2 reversed, 3 key-sorted with equal keys reversed, 4 all equal.
    fn arrange(words: &mut Vec<u64>, schema: &Schema, shape: u8) {
        let arity = schema.arity();
        match shape {
            0 => {}
            1 => *words = reference_sort(schema, words),
            2 | 3 => {
                let mut rows: Vec<Vec<u64>> = reference_sort(schema, words)
                    .chunks_exact(arity)
                    .map(<[u64]>::to_vec)
                    .collect();
                rows.reverse();
                if shape == 3 {
                    // Key-sorted, but descending within each run of equal
                    // keys: in order for `compare_keys`, not for the sort.
                    rows.sort_by(|a, b| compare_keys(schema, a, b));
                }
                *words = rows.concat();
            }
            _ => {
                let first = words[..arity].to_vec();
                for row in words.chunks_exact_mut(arity) {
                    row.copy_from_slice(&first);
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]
        #[test]
        fn from_words_matches_reference_sort(
            rows in proptest::collection::vec((0u64..4, 0u64..6, 0u64..3), 1..40),
            shape in 0u8..5,
            key_arity in 1usize..3,
        ) {
            let schema = Schema::new(vec![AttrType::U32, AttrType::F32, AttrType::U32], key_arity);
            let mut words: Vec<u64> = rows
                .iter()
                .flat_map(|&(a, f, c)| [a, f32_word(f), c])
                .collect();
            arrange(&mut words, &schema, shape);
            let expected = reference_sort(&schema, &words);
            let rel = Relation::from_words(schema, words).unwrap();
            proptest::prop_assert_eq!(rel.words(), expected.as_slice());
            proptest::prop_assert!(rel.is_sorted());
        }
    }
}
