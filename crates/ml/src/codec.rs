//! Binary wire codec for every payload that crosses the simulated network.
//!
//! Until this module existed, the communication-cost tables were derived from
//! hand-rolled `wire_size()` *estimates* — nothing was ever serialized, so the
//! paper's central cost claim (E3) was unfalsifiable and compression could not
//! even be attempted. This codec provides a canonical binary encoding for the
//! artifacts the protocols actually propagate, so the network layer can charge
//! the **measured length of real encoded bytes** and receivers can decode
//! their models from those bytes (round-tripping every propagation).
//!
//! # Layout primitives
//!
//! * **Varints** — unsigned LEB128: 7 bits per byte, high bit = continuation.
//!   Tag ids, counts and dimensions are varint-coded.
//! * **Index blocks** — a strictly increasing `u32` index list (sparse-vector
//!   indices, nonzero weight positions, tag universes) is stored in whichever
//!   of three encodings is smallest for the data at hand:
//!   * *delta* — first index as a varint, then `gap − 1` varints (gaps are
//!     ≥ 1, so dense runs cost one byte per entry);
//!   * *bitmap* — first index + span as varints, then `⌈span/8⌉` presence
//!     bits (wins when the list covers most of a narrow range, e.g. trained
//!     weight vectors over the observed vocabulary);
//!   * *contiguous* — just the first index, when the list is exactly
//!     `first..first+len` (fully dense weight vectors).
//! * **Value blocks** — the parallel payload values as little-endian `f64`
//!   behind a precision tag byte that is always 0 ([`WeightPrecision::F64`]),
//!   so decoded models are **bit-identical**. Decoders reject any other tag.
//!
//! Framing (magic, version, payload kind) is the transport's concern and
//! lives in `p2pclassify::wire`; this module encodes payload bodies only.
//!
//! # Linear model bodies
//!
//! One peer's tags are trained on the same documents, so their nonzero
//! weights nearly always sit at the same features. A linear one-vs-all model
//! ([`encode_linear_ova`]) therefore writes the union of its tags' supports
//! once, as one index block, and each tag then says which support positions
//! it holds: all of them (one mode byte) or those set in a bitmap over the
//! support. A lone [`LinearSvm`] ([`encode_linear_svm`]) still writes its
//! own index block.
//!
//! # Kernel model bodies
//!
//! A document is a support vector of several of its tags, so a kernel
//! one-vs-all model ([`encode_kernel_ova`]) is written as a dictionary:
//! each distinct vector once (equal indices and value bits are one
//! vector), then per tag its kernel tag byte, bias, labels, dual coefficients and
//! one varint dictionary id per support vector. Ids follow first
//! appearance, so the frame is canonical whatever the model's storage
//! history, and the decoder hands every tag that keeps a vector the same
//! allocation — the sharing the cascade merge and the scorer then find by
//! storage identity instead of by hashing. A lone [`KernelSvm`]
//! ([`encode_kernel_svm`]) still writes its vectors inline.
//!
//! # Decoding hostile bytes
//!
//! Decoders never size an allocation by a count the remaining bytes cannot
//! back: a count of entries that take at least `b` bytes each is checked
//! against the bytes left before anything is reserved (a value, a support
//! vector, a dictionary entry or id, a score). Only tag sets, whose
//! index blocks can describe eight entries per byte, keep the looser bound.
//!
//! Every value a model or vector decoder reads is finite: value-block
//! entries (weights, dual coefficients, vector and centroid values), biases
//! and one-vs-all thresholds. A non-finite one, or a
//! stored linear weight of zero (which an encoder never writes), is
//! [`CodecError::Invalid`]; the encoders `debug_assert` the same contract.

use crate::data::{MultiLabelDataset, MultiLabelExample, TagId};
use crate::distinct::DistinctIds;
use crate::multilabel::{OneVsAllModel, TagPrediction};
use crate::svm::{BinaryClassifier, KernelSvm, LinearSvm, SupportVector};
use std::collections::BTreeMap;
use textproc::SparseVector;

/// Why a payload could not be decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The byte stream ended before the payload was complete.
    Truncated,
    /// A structurally invalid encoding (bad block tag, index overflow, …).
    Invalid(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => f.write_str("payload truncated"),
            CodecError::Invalid(what) => write!(f, "invalid payload: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Precision at which model weight values (linear weights, SV dual
/// coefficients) are put on the wire: lossless `f64`, the one encoding, so
/// a decoded model is bit-identical to the encoded one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WeightPrecision {
    /// Lossless IEEE-754 double precision (8 bytes per value).
    #[default]
    F64,
}

/// A cursor over an encoded payload.
#[derive(Debug)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Starts reading at the beginning of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Reads one byte.
    pub fn read_byte(&mut self) -> Result<u8, CodecError> {
        let b = *self.bytes.get(self.pos).ok_or(CodecError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads `n` raw bytes.
    pub fn read_bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads an unsigned LEB128 varint.
    pub fn read_varint(&mut self) -> Result<u64, CodecError> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.read_byte()?;
            if shift >= 63 && b > 1 {
                return Err(CodecError::Invalid("varint overflows u64"));
            }
            value |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }

    /// Reads a varint and checks it fits a `usize` count bounded by the
    /// remaining payload (a cheap defense against corrupt length prefixes
    /// requesting absurd allocations). The bound is loose — eight entries
    /// per remaining byte, what a bitmap or contiguous index block can
    /// describe — so only counts whose entries carry no bytes of their own
    /// (tag sets) are read this way; see [`Self::read_count_of`].
    fn read_count(&mut self) -> Result<usize, CodecError> {
        let n = self.read_varint()?;
        if n > (self.remaining() as u64 + 1) * 8 {
            return Err(CodecError::Invalid("count exceeds payload size"));
        }
        Ok(n as usize)
    }

    /// Reads a count of entries that take at least `min_bytes` each of the
    /// remaining payload, and rejects it when they cannot fit — so a count
    /// never reserves more than the frame can fill.
    fn read_count_of(&mut self, min_bytes: usize) -> Result<usize, CodecError> {
        let n = self.read_varint()?;
        self.check_fits(n, min_bytes)?;
        Ok(n as usize)
    }

    /// Checks that `n` entries of at least `min_bytes` each fit in the
    /// remaining payload.
    fn check_fits(&self, n: u64, min_bytes: usize) -> Result<(), CodecError> {
        match n.checked_mul(min_bytes as u64) {
            Some(bytes) if bytes <= self.remaining() as u64 => Ok(()),
            _ => Err(CodecError::Invalid("count exceeds payload size")),
        }
    }

    /// Reads a little-endian `f64`.
    pub fn read_f64(&mut self) -> Result<f64, CodecError> {
        let raw = self.read_bytes(8)?;
        Ok(f64::from_le_bytes(raw.try_into().expect("8 bytes")))
    }

    /// Reads a little-endian `f64` that must be finite.
    fn read_finite_f64(&mut self) -> Result<f64, CodecError> {
        let v = self.read_f64()?;
        if !v.is_finite() {
            return Err(CodecError::Invalid("non-finite value"));
        }
        Ok(v)
    }
}

/// Appends an unsigned LEB128 varint.
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Encoded length of a varint, in bytes.
pub fn varint_len(v: u64) -> usize {
    (64 - v.max(1).leading_zeros() as usize).div_ceil(7)
}

/// Appends a little-endian `f64`.
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a model parameter the decoders hold to be finite.
fn put_finite_f64(buf: &mut Vec<u8>, v: f64) {
    debug_assert!(v.is_finite(), "non-finite value {v} on the wire");
    put_f64(buf, v);
}

// ---------------------------------------------------------------------------
// Index blocks
// ---------------------------------------------------------------------------

const IDX_DELTA: u8 = 0;
const IDX_BITMAP: u8 = 1;
const IDX_CONTIGUOUS: u8 = 2;

/// Encodes a strictly increasing index list (the count travels separately).
fn put_index_block(indices: &[u32], buf: &mut Vec<u8>) {
    let Some((&first, rest)) = indices.split_first() else {
        return; // the zero-count case carries no block at all
    };
    let last = *indices.last().expect("non-empty");
    let span = u64::from(last) - u64::from(first) + 1;
    if span == indices.len() as u64 {
        buf.push(IDX_CONTIGUOUS);
        put_varint(buf, u64::from(first));
        return;
    }
    let mut delta_cost = varint_len(u64::from(first));
    let mut prev = first;
    for &i in rest {
        delta_cost += varint_len(u64::from(i - prev - 1));
        prev = i;
    }
    let bitmap_cost = varint_len(u64::from(first)) + varint_len(span) + (span as usize).div_ceil(8);
    if bitmap_cost < delta_cost {
        buf.push(IDX_BITMAP);
        put_varint(buf, u64::from(first));
        put_varint(buf, span);
        let mut bits = vec![0u8; (span as usize).div_ceil(8)];
        for &i in indices {
            let off = (i - first) as usize;
            bits[off / 8] |= 1 << (off % 8);
        }
        buf.extend_from_slice(&bits);
    } else {
        buf.push(IDX_DELTA);
        put_varint(buf, u64::from(first));
        let mut prev = first;
        for &i in rest {
            put_varint(buf, u64::from(i - prev - 1));
            prev = i;
        }
    }
}

/// Decodes an index block of `count` strictly increasing `u32` indices.
fn read_index_block(r: &mut ByteReader<'_>, count: usize) -> Result<Vec<u32>, CodecError> {
    if count == 0 {
        return Ok(Vec::new());
    }
    let mode = r.read_byte()?;
    // Reserved only once the block is known to describe `count` entries:
    // a contiguous block after the `u32` range check (its callers bound
    // `count` by what follows it), the others once their bytes are there.
    let mut out = Vec::new();
    match mode {
        IDX_CONTIGUOUS => {
            let first = r.read_varint()?;
            let last = first
                .checked_add(count as u64 - 1)
                .filter(|&l| l <= u64::from(u32::MAX))
                .ok_or(CodecError::Invalid("contiguous index block overflows u32"))?;
            out.extend(first as u32..=last as u32);
        }
        IDX_DELTA => {
            let first = r.read_varint()?;
            if first > u64::from(u32::MAX) {
                return Err(CodecError::Invalid("index overflows u32"));
            }
            // Every later index is a gap varint of at least one byte.
            r.check_fits(count as u64 - 1, 1)?;
            out.reserve_exact(count);
            let mut prev = first as u32;
            out.push(prev);
            for _ in 1..count {
                let next = r
                    .read_varint()?
                    .checked_add(1)
                    .and_then(|gap| u64::from(prev).checked_add(gap))
                    .filter(|&n| n <= u64::from(u32::MAX))
                    .ok_or(CodecError::Invalid("index overflows u32"))?;
                prev = next as u32;
                out.push(prev);
            }
        }
        IDX_BITMAP => {
            let first = r.read_varint()?;
            let span = r.read_varint()?;
            if span == 0
                || first
                    .checked_add(span - 1)
                    .filter(|&l| l <= u64::from(u32::MAX))
                    .is_none()
            {
                return Err(CodecError::Invalid("bitmap index block overflows u32"));
            }
            let bits = r.read_bytes((span as usize).div_ceil(8))?;
            if count as u64 > span {
                return Err(CodecError::Invalid("bitmap population mismatches count"));
            }
            out.reserve_exact(count);
            for off in 0..span as usize {
                if bits[off / 8] & (1 << (off % 8)) != 0 {
                    out.push(first as u32 + off as u32);
                }
            }
            if out.len() != count {
                return Err(CodecError::Invalid("bitmap population mismatches count"));
            }
        }
        _ => return Err(CodecError::Invalid("unknown index block mode")),
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Value blocks
// ---------------------------------------------------------------------------

/// The precision tag of an `f64` value block, the only one written or read.
const VAL_F64: u8 = 0;

/// Encodes a parallel block of finite values.
fn put_value_block(values: &[f64], buf: &mut Vec<u8>) {
    buf.push(VAL_F64);
    for &v in values {
        put_finite_f64(buf, v);
    }
}

/// Decodes a value block of `count` finite values.
fn read_value_block(r: &mut ByteReader<'_>, count: usize) -> Result<Vec<f64>, CodecError> {
    if r.read_byte()? != VAL_F64 {
        return Err(CodecError::Invalid("unknown value block precision"));
    }
    r.check_fits(count as u64, 8)?;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        out.push(r.read_finite_f64()?);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Payload codecs
// ---------------------------------------------------------------------------

/// Encodes a sparse document vector (always lossless: vectors are data, not
/// model weights).
pub fn encode_vector(v: &SparseVector, buf: &mut Vec<u8>) {
    put_varint(buf, v.nnz() as u64);
    put_index_block(v.indices(), buf);
    put_value_block(v.values(), buf);
}

/// Decodes a sparse document vector.
pub fn decode_vector(r: &mut ByteReader<'_>) -> Result<SparseVector, CodecError> {
    // Each nonzero's value takes at least a byte of what follows.
    let nnz = r.read_count_of(1)?;
    let indices = read_index_block(r, nnz)?;
    let values = read_value_block(r, nnz)?;
    Ok(SparseVector::from_sorted_pairs(
        indices.into_iter().zip(values),
    ))
}

/// Encodes a list of sparse vectors (PACE centroid payloads).
pub fn encode_vectors(vs: &[SparseVector], buf: &mut Vec<u8>) {
    put_varint(buf, vs.len() as u64);
    for v in vs {
        encode_vector(v, buf);
    }
}

/// Decodes a list of sparse vectors.
pub fn decode_vectors(r: &mut ByteReader<'_>) -> Result<Vec<SparseVector>, CodecError> {
    let n = r.read_count_of(MIN_VECTOR_BYTES)?;
    (0..n).map(|_| decode_vector(r)).collect()
}

/// Encodes a linear SVM: dimension, bias, then the nonzero weights as an
/// index block + value block.
pub fn encode_linear_svm(m: &LinearSvm, _precision: WeightPrecision, buf: &mut Vec<u8>) {
    put_varint(buf, m.dim() as u64);
    put_finite_f64(buf, m.bias());
    put_varint(buf, m.nonzero_weights() as u64);
    put_index_block(m.indices(), buf);
    put_value_block(m.values(), buf);
}

/// The linear body encoder [`encode_linear_svm`] replaced, kept as its
/// oracle: it filters the nonzeros out of a dense weight vector.
#[cfg(test)]
fn encode_linear_dense(w: &[f64], bias: f64, buf: &mut Vec<u8>) {
    put_varint(buf, w.len() as u64);
    put_f64(buf, bias);
    let (indices, values): (Vec<u32>, Vec<f64>) = w
        .iter()
        .enumerate()
        .filter(|&(_, &v)| v != 0.0)
        .map(|(i, &v)| (i as u32, v))
        .unzip();
    put_varint(buf, indices.len() as u64);
    put_index_block(&indices, buf);
    put_value_block(&values, buf);
}

/// Largest weight dimension [`decode_linear_svm`] accepts (16 M features),
/// an order of magnitude above any realistic lexicon. Decoding allocates
/// only the stored nonzeros, but a model's dimension sizes the dense
/// scratch a warm start refits it in (and the row pointers of the
/// [`crate::TagWeightMatrix`] it is packed into), so a corrupt dimension
/// prefix in a frame cannot request an absurd allocation there.
pub const MAX_WEIGHT_DIM: usize = 1 << 24;

/// Decodes a linear SVM into its nonzero weights.
pub fn decode_linear_svm(r: &mut ByteReader<'_>) -> Result<LinearSvm, CodecError> {
    let dim = read_weight_dim(r)?;
    let bias = r.read_finite_f64()?;
    let nnz = r.read_count_of(1)?;
    let indices = read_index_block(r, nnz)?;
    let values = read_value_block(r, nnz)?;
    linear_from_block(dim, indices, values, bias)
}

/// Reads a weight dimension and checks it against [`MAX_WEIGHT_DIM`].
fn read_weight_dim(r: &mut ByteReader<'_>) -> Result<usize, CodecError> {
    let dim = r.read_varint()?;
    if dim > MAX_WEIGHT_DIM as u64 {
        return Err(CodecError::Invalid("weight dimension exceeds decode cap"));
    }
    Ok(dim as usize)
}

/// A decoded linear SVM from its ascending indices and parallel values:
/// every index must lie below `dim`, and every value is a stored nonzero.
fn linear_from_block(
    dim: usize,
    indices: Vec<u32>,
    values: Vec<f64>,
    bias: f64,
) -> Result<LinearSvm, CodecError> {
    // Indices ascend, so the last one bounds them all.
    if indices.last().is_some_and(|&i| i as usize >= dim) {
        return Err(CodecError::Invalid("weight index out of range"));
    }
    if values.contains(&0.0) {
        return Err(CodecError::Invalid("zero weight"));
    }
    Ok(LinearSvm::from_parts(dim, indices, values, bias))
}

/// The kernel tag byte of a kernel SVM head: the dot product's. The tags of
/// the kernels once written beside it (1: RBF, 2: polynomial), and any
/// other, are unknown.
const KERNEL_LINEAR: u8 = 0;

/// Writes a kernel SVM's head: kernel tag, bias, support-vector count,
/// labels as a bitmap and dual coefficients as one value block. The support
/// vectors' vectors follow, in whatever form the body uses.
fn put_kernel_svm_head(m: &KernelSvm, buf: &mut Vec<u8>) {
    buf.push(KERNEL_LINEAR);
    put_finite_f64(buf, m.bias());
    let svs = m.support_vectors();
    put_varint(buf, svs.len() as u64);
    let mut labels = vec![0u8; svs.len().div_ceil(8)];
    for (i, sv) in svs.iter().enumerate() {
        if sv.label {
            labels[i / 8] |= 1 << (i % 8);
        }
    }
    buf.extend_from_slice(&labels);
    let alphas: Vec<f64> = svs.iter().map(|sv| sv.alpha).collect();
    put_value_block(&alphas, buf);
}

/// A decoded kernel SVM head: everything but the support vectors' vectors.
struct KernelSvmHead<'a> {
    bias: f64,
    labels: &'a [u8],
    alphas: Vec<f64>,
}

impl KernelSvmHead<'_> {
    fn read<'a>(r: &mut ByteReader<'a>) -> Result<KernelSvmHead<'a>, CodecError> {
        if r.read_byte()? != KERNEL_LINEAR {
            return Err(CodecError::Invalid("unknown kernel tag"));
        }
        let bias = r.read_finite_f64()?;
        // A support vector takes at least an alpha byte and a byte of its
        // vector (or of its dictionary id).
        let n = r.read_count_of(2)?;
        let labels = r.read_bytes(n.div_ceil(8))?;
        let alphas = read_value_block(r, n)?;
        Ok(KernelSvmHead {
            bias,
            labels,
            alphas,
        })
    }

    /// The model, given each support vector's vector in order.
    fn finish(
        self,
        mut vector: impl FnMut() -> Result<SparseVector, CodecError>,
    ) -> Result<KernelSvm, CodecError> {
        let mut svs = Vec::with_capacity(self.alphas.len());
        for (i, alpha) in self.alphas.into_iter().enumerate() {
            svs.push(SupportVector {
                vector: vector()?,
                label: self.labels[i / 8] & (1 << (i % 8)) != 0,
                alpha,
            });
        }
        Ok(KernelSvm::from_support_vectors(svs, self.bias))
    }
}

/// Fewest bytes an encoded vector takes: its nonzero count and the value
/// block's precision tag.
const MIN_VECTOR_BYTES: usize = 2;

/// Encodes a kernel SVM on its own: its head, then each support vector's
/// vector losslessly.
pub fn encode_kernel_svm(m: &KernelSvm, _precision: WeightPrecision, buf: &mut Vec<u8>) {
    put_kernel_svm_head(m, buf);
    for sv in m.support_vectors() {
        encode_vector(&sv.vector, buf);
    }
}

/// Decodes a kernel SVM encoded by [`encode_kernel_svm`].
pub fn decode_kernel_svm(r: &mut ByteReader<'_>) -> Result<KernelSvm, CodecError> {
    KernelSvmHead::read(r)?.finish(|| decode_vector(r))
}

/// Encodes a one-vs-all model shell: threshold, min-tags policy, tag
/// universe.
fn put_ova_shell<C: BinaryClassifier>(model: &OneVsAllModel<C>, buf: &mut Vec<u8>) {
    put_finite_f64(buf, model.threshold());
    put_varint(buf, model.min_tags() as u64);
    let tags: Vec<TagId> = model.tags().collect();
    put_varint(buf, tags.len() as u64);
    put_index_block(&tags, buf);
}

/// Decodes a one-vs-all model shell to `(threshold, min_tags, tags)`.
fn read_ova_shell(r: &mut ByteReader<'_>) -> Result<(f64, usize, Vec<TagId>), CodecError> {
    let threshold = r.read_finite_f64()?;
    let min_tags = r.read_varint()? as usize;
    // Every tag has a classifier body of at least a byte.
    let num_tags = r.read_count_of(1)?;
    let tags = read_index_block(r, num_tags)?;
    Ok((threshold, min_tags, tags))
}

/// A tag whose nonzero weights sit at every support index.
const SUPPORT_WHOLE: u8 = 0;
/// A tag whose nonzero weights sit at the support positions set in a bitmap.
const SUPPORT_BITMAP: u8 = 1;

/// The union of a linear model's tag supports, ascending — borrowed from
/// the first tag when every tag holds the same indices (the common case).
fn linear_support(model: &OneVsAllModel<LinearSvm>) -> std::borrow::Cow<'_, [u32]> {
    let mut tags = model.iter().map(|(_, clf)| clf.indices());
    let Some(first) = tags.next() else {
        return std::borrow::Cow::Borrowed(&[]);
    };
    if tags.all(|indices| indices == first) {
        return std::borrow::Cow::Borrowed(first);
    }
    let mut union: Vec<u32> = model
        .iter()
        .flat_map(|(_, clf)| clf.indices().iter().copied())
        .collect();
    union.sort_unstable();
    union.dedup();
    std::borrow::Cow::Owned(union)
}

/// Encodes a one-vs-all linear model (the PACE propagation payload body)
/// with the union of its tags' supports written once:
///
/// ```text
/// shell      threshold, min tags, tag universe
/// support    S varint, then an index block of the S features
/// per tag    dim varint, bias f64, mode byte,
///            mode 1 only: ⌈S/8⌉-byte bitmap over support positions,
///            then a value block of the tag's nonzero weights
/// ```
///
/// Mode 0 means the tag's weights sit at the whole support; mode 1 sets one
/// bit per support position the tag holds. The support is exactly the
/// union, so every position is held by some tag, and a tag holding all of
/// them is always written as mode 0: the frame depends only on the model.
pub fn encode_linear_ova(
    model: &OneVsAllModel<LinearSvm>,
    _precision: WeightPrecision,
    buf: &mut Vec<u8>,
) {
    put_ova_shell(model, buf);
    let support = linear_support(model);
    put_varint(buf, support.len() as u64);
    put_index_block(&support, buf);
    let mut bits = Vec::new();
    for (_, clf) in model.iter() {
        put_varint(buf, clf.dim() as u64);
        put_finite_f64(buf, clf.bias());
        if clf.indices() == &support[..] {
            buf.push(SUPPORT_WHOLE);
        } else {
            buf.push(SUPPORT_BITMAP);
            bits.clear();
            bits.resize(support.len().div_ceil(8), 0u8);
            // The tag's indices are an ascending subsequence of the support.
            let mut pos = 0;
            for &j in clf.indices() {
                while support[pos] != j {
                    pos += 1;
                }
                bits[pos / 8] |= 1 << (pos % 8);
                pos += 1;
            }
            buf.extend_from_slice(&bits);
        }
        put_value_block(clf.values(), buf);
    }
}

/// Decodes a one-vs-all linear model encoded by [`encode_linear_ova`].
///
/// Each tag is checked as [`decode_linear_svm`] checks a lone model: its
/// dimension against [`MAX_WEIGHT_DIM`], its indices against its dimension,
/// and its bias and weights finite and its weights nonzero. An unknown mode, a
/// bitmap bit past the support, a bitmap selecting the whole support (mode
/// 0's job) or a support position no tag holds is invalid.
pub fn decode_linear_ova(r: &mut ByteReader<'_>) -> Result<OneVsAllModel<LinearSvm>, CodecError> {
    let (threshold, min_tags, tags) = read_ova_shell(r)?;
    // Some tag holds each support index, with a value of at least a byte.
    let num_support = r.read_count_of(1)?;
    let support = read_index_block(r, num_support)?;
    let bitmap_len = num_support.div_ceil(8);
    // Union of the bitmaps read, unless some tag took the whole support.
    let mut held_whole = false;
    let mut held = Vec::new();
    let mut classifiers = BTreeMap::new();
    for tag in tags {
        let dim = read_weight_dim(r)?;
        let bias = r.read_finite_f64()?;
        let clf = match r.read_byte()? {
            SUPPORT_WHOLE => {
                held_whole = true;
                let values = read_value_block(r, num_support)?;
                linear_from_block(dim, support.clone(), values, bias)?
            }
            SUPPORT_BITMAP => {
                let bits = r.read_bytes(bitmap_len)?;
                if num_support % 8 != 0 && bits[bitmap_len - 1] >> (num_support % 8) != 0 {
                    return Err(CodecError::Invalid(
                        "support bitmap sets a bit past the support",
                    ));
                }
                let count: usize = bits.iter().map(|b| b.count_ones() as usize).sum();
                if count == num_support {
                    return Err(CodecError::Invalid(
                        "support bitmap selects the whole support",
                    ));
                }
                let values = read_value_block(r, count)?;
                let mut indices = Vec::with_capacity(count);
                for (byte, &b) in bits.iter().enumerate() {
                    let mut b = b;
                    while b != 0 {
                        indices.push(support[byte * 8 + b.trailing_zeros() as usize]);
                        b &= b - 1;
                    }
                }
                held.resize(bitmap_len, 0u8);
                for (h, &b) in held.iter_mut().zip(bits) {
                    *h |= b;
                }
                linear_from_block(dim, indices, values, bias)?
            }
            _ => return Err(CodecError::Invalid("unknown support mode")),
        };
        classifiers.insert(tag, clf);
    }
    let held_count: usize = held.iter().map(|b| b.count_ones() as usize).sum();
    if !held_whole && held_count != num_support {
        return Err(CodecError::Invalid("unheld support index"));
    }
    Ok(OneVsAllModel::from_classifiers(
        classifiers,
        threshold,
        min_tags,
    ))
}

/// Encodes a one-vs-all kernel model (the CEMPaR propagation payload body)
/// with a dictionary of its distinct support vectors:
///
/// ```text
/// shell            threshold, min tags, tag universe
/// D                varint, then D vectors (encode_vector)
/// per tag          kernel tag 0, bias, n, label bitmap, alpha value block,
///                  then n varint dictionary ids
/// ```
///
/// A document is a support vector of several of its tags, so a vector is
/// written once however many tags keep it. Distinct means different
/// indices or value bits, and ids follow first appearance (tags ascending,
/// support vectors in order), so the frame depends only on the model's
/// content, not on which of its vectors share storage.
pub fn encode_kernel_ova(
    model: &OneVsAllModel<KernelSvm>,
    _precision: WeightPrecision,
    buf: &mut Vec<u8>,
) {
    put_ova_shell(model, buf);
    let mut ids = DistinctIds::new();
    let mut dictionary: Vec<&SparseVector> = Vec::new();
    let mut sv_ids: Vec<u32> = Vec::new();
    for (_, clf) in model.iter() {
        for sv in clf.support_vectors() {
            let (id, first) = ids.id(&sv.vector);
            if first {
                dictionary.push(&sv.vector);
            }
            sv_ids.push(id);
        }
    }
    put_varint(buf, dictionary.len() as u64);
    for v in dictionary {
        encode_vector(v, buf);
    }
    let mut sv_ids = sv_ids.into_iter();
    for (_, clf) in model.iter() {
        put_kernel_svm_head(clf, buf);
        for id in sv_ids.by_ref().take(clf.num_support_vectors()) {
            put_varint(buf, u64::from(id));
        }
    }
}

/// Decodes a one-vs-all kernel model encoded by [`encode_kernel_ova`].
///
/// Every support vector's vector is a clone of its dictionary entry, so
/// the decoded model holds one allocation per distinct vector, shared by
/// every tag that keeps it. An id past the dictionary, or a dictionary
/// entry no id references, is invalid.
pub fn decode_kernel_ova(r: &mut ByteReader<'_>) -> Result<OneVsAllModel<KernelSvm>, CodecError> {
    let (threshold, min_tags, tags) = read_ova_shell(r)?;
    let num_vectors = r.read_count_of(MIN_VECTOR_BYTES)?;
    let dictionary = (0..num_vectors)
        .map(|_| decode_vector(r))
        .collect::<Result<Vec<_>, _>>()?;
    let mut referenced = vec![false; num_vectors];
    let mut classifiers = BTreeMap::new();
    for tag in tags {
        let head = KernelSvmHead::read(r)?;
        let clf = head.finish(|| {
            let id = r.read_varint()?;
            let entry = usize::try_from(id)
                .ok()
                .filter(|&id| id < num_vectors)
                .ok_or(CodecError::Invalid("dictionary id out of range"))?;
            referenced[entry] = true;
            Ok(dictionary[entry].clone())
        })?;
        classifiers.insert(tag, clf);
    }
    if referenced.contains(&false) {
        return Err(CodecError::Invalid("unreferenced dictionary entry"));
    }
    Ok(OneVsAllModel::from_classifiers(
        classifiers,
        threshold,
        min_tags,
    ))
}

/// Encodes one tagged example (vector + tag-id index block).
pub fn encode_example(ex: &MultiLabelExample, buf: &mut Vec<u8>) {
    encode_vector(&ex.vector, buf);
    let tags: Vec<TagId> = ex.tags.iter().copied().collect();
    put_varint(buf, tags.len() as u64);
    put_index_block(&tags, buf);
}

/// Decodes one tagged example.
pub fn decode_example(r: &mut ByteReader<'_>) -> Result<MultiLabelExample, CodecError> {
    let vector = decode_vector(r)?;
    let num_tags = r.read_count()?;
    let tags = read_index_block(r, num_tags)?;
    Ok(MultiLabelExample::new(vector, tags))
}

/// Encodes a whole dataset (the Centralized baseline's training upload).
pub fn encode_dataset(ds: &MultiLabelDataset, buf: &mut Vec<u8>) {
    put_varint(buf, ds.len() as u64);
    for (vector, tags) in ds.iter() {
        encode_vector(vector, buf);
        let tags: Vec<TagId> = tags.iter().copied().collect();
        put_varint(buf, tags.len() as u64);
        put_index_block(&tags, buf);
    }
}

/// Decodes a dataset.
pub fn decode_dataset(r: &mut ByteReader<'_>) -> Result<MultiLabelDataset, CodecError> {
    let n = r.read_count()?;
    let mut out = MultiLabelDataset::new();
    for _ in 0..n {
        out.push(decode_example(r)?);
    }
    Ok(out)
}

/// Encodes a scored tag list (prediction responses) in its caller-defined
/// order (per-tag vote sums accumulate in list order, so order is part of
/// the payload). The wire format canonicalizes `confidence` as
/// `logistic(score)` — which is exactly how every response producer (the
/// CEMPaR regional scorers, the Centralized server) derives it — so only
/// `(tag, score)` travels and the decoder recomputes the identical
/// confidence bits.
pub fn encode_predictions(preds: &[TagPrediction], buf: &mut Vec<u8>) {
    put_varint(buf, preds.len() as u64);
    for p in preds {
        put_varint(buf, u64::from(p.tag));
        put_f64(buf, p.score);
    }
}

/// Decodes a scored tag list, re-deriving each confidence as
/// `logistic(score)` (see [`encode_predictions`]).
pub fn decode_predictions(r: &mut ByteReader<'_>) -> Result<Vec<TagPrediction>, CodecError> {
    // A tag varint and an `f64` score each.
    let n = r.read_count_of(9)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let tag = u32::try_from(r.read_varint()?)
            .map_err(|_| CodecError::Invalid("tag id overflows u32"))?;
        let score = r.read_f64()?;
        out.push(TagPrediction {
            tag,
            score,
            confidence: 1.0 / (1.0 + (-score).exp()),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::MultiLabelExample;
    use crate::multilabel::OneVsAllTrainer;
    use crate::svm::{KernelSvmTrainer, LinearSvmTrainer};
    use proptest::prelude::*;

    fn roundtrip<T, E, D>(value: &T, enc: E, dec: D) -> T
    where
        E: Fn(&T, &mut Vec<u8>),
        D: Fn(&mut ByteReader<'_>) -> Result<T, CodecError>,
    {
        let mut buf = Vec::new();
        enc(value, &mut buf);
        let mut r = ByteReader::new(&buf);
        let out = dec(&mut r).expect("decodes");
        assert_eq!(r.remaining(), 0, "payload fully consumed");
        out
    }

    #[test]
    fn varint_roundtrips_and_lengths() {
        for v in [0u64, 1, 127, 128, 300, 16_383, 16_384, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v), "{v}");
            let mut r = ByteReader::new(&buf);
            assert_eq!(r.read_varint().unwrap(), v);
        }
    }

    #[test]
    fn index_block_picks_compact_modes() {
        // Contiguous run: mode byte + one varint.
        let contiguous: Vec<u32> = (5..205).collect();
        let mut buf = Vec::new();
        put_index_block(&contiguous, &mut buf);
        assert_eq!(buf.len(), 2);
        assert_eq!(
            read_index_block(&mut ByteReader::new(&buf), contiguous.len()).unwrap(),
            contiguous
        );
        // Dense-but-gappy list: the bitmap beats per-entry varints.
        let gappy: Vec<u32> = (0..600).filter(|i| i % 3 != 2).collect();
        let mut buf = Vec::new();
        put_index_block(&gappy, &mut buf);
        assert!(buf.len() < 1 + gappy.len());
        assert_eq!(
            read_index_block(&mut ByteReader::new(&buf), gappy.len()).unwrap(),
            gappy
        );
        // Sparse list over a huge range: deltas win over the bitmap.
        let sparse: Vec<u32> = (0..20).map(|i| i * 50_000).collect();
        let mut buf = Vec::new();
        put_index_block(&sparse, &mut buf);
        assert!(buf.len() < 1 + 20 * 5);
        assert_eq!(
            read_index_block(&mut ByteReader::new(&buf), sparse.len()).unwrap(),
            sparse
        );
    }

    /// Overwrites every occurrence of `from`'s bytes in `frame` with `to`'s
    /// and says whether there was one: how a test writes values no encoder
    /// puts on the wire.
    fn forge(frame: &mut [u8], from: f64, to: f64) -> bool {
        let (from, to) = (from.to_le_bytes(), to.to_le_bytes());
        let mut found = false;
        let mut at = 0;
        while at + 8 <= frame.len() {
            if frame[at..at + 8] == from {
                frame[at..at + 8].copy_from_slice(&to);
                found = true;
                at += 8;
            } else {
                at += 1;
            }
        }
        found
    }

    /// `frame` with every stand-in ([`stand_in`]) on it forged into a
    /// non-finite value of its kind, or `None` when it holds none.
    fn forged(frame: &[u8]) -> Option<Vec<u8>> {
        let mut out = frame.to_vec();
        let mut found = false;
        for (magnitude, value) in [(NAN_STAND_IN, f64::NAN), (INF_STAND_IN, f64::INFINITY)] {
            for sign in [1.0, -1.0] {
                found |= forge(&mut out, sign * magnitude, sign * value);
            }
        }
        found.then_some(out)
    }

    const NAN_STAND_IN: f64 = std::f64::consts::PI * 1e7;
    const INF_STAND_IN: f64 = std::f64::consts::E * 1e7;

    /// `v`, or for a NaN or an infinity a finite stand-in of its sign that
    /// [`forged`] turns back into a value of its kind.
    fn stand_in(v: f64) -> f64 {
        match v {
            v if v.is_nan() => NAN_STAND_IN.copysign(v),
            v if v.is_infinite() => INF_STAND_IN.copysign(v),
            v => v,
        }
    }

    const NON_FINITE: Result<(), CodecError> = Err(CodecError::Invalid("non-finite value"));

    #[test]
    fn value_block_precisions() {
        let values = [1.5, -0.25, 0.75, -2.0, 1e-300, -0.0];
        let mut buf = Vec::new();
        put_value_block(&values, &mut buf);
        assert_eq!(buf.len(), 1 + 8 * values.len());
        let decoded = read_value_block(&mut ByteReader::new(&buf), values.len()).unwrap();
        let bits = |vs: &[f64]| vs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&decoded), bits(&values));
        // The tags of the lossy blocks once written (1: f32, 2: q8), and any
        // other, are unknown precisions.
        for tag in [1, 2, 3, 0xFF] {
            buf[0] = tag;
            assert_eq!(
                read_value_block(&mut ByteReader::new(&buf), values.len()),
                Err(CodecError::Invalid("unknown value block precision")),
                "tag {tag}"
            );
        }
    }

    #[test]
    fn non_finite_values_are_rejected_at_decode() {
        let bad = |frame: &[u8]| forged(frame).expect("a stand-in is on the wire");
        for v in [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let x = stand_in(v);
            // A value block, a document vector and a centroid list.
            let mut block = Vec::new();
            put_value_block(&[1.0, x], &mut block);
            let got = read_value_block(&mut ByteReader::new(&bad(&block)), 2);
            assert_eq!(got.map(|_| ()), NON_FINITE, "{v}");
            let vector = SparseVector::from_pairs([(2, 0.5), (7, x)]);
            let mut frame = Vec::new();
            encode_vectors(&[SparseVector::from_pairs([(0, 1.0)]), vector], &mut frame);
            let got = decode_vectors(&mut ByteReader::new(&bad(&frame)));
            assert_eq!(got.map(|_| ()), NON_FINITE, "{v}");
            // A linear weight and bias, alone and in a one-vs-all body.
            for (w, bias) in [(x, 0.5), (0.5, x)] {
                let m = LinearSvm::from_dense(&[0.25, w, 0.0], bias);
                let mut frame = Vec::new();
                encode_linear_svm(&m, WeightPrecision::F64, &mut frame);
                let got = decode_linear_svm(&mut ByteReader::new(&bad(&frame)));
                assert_eq!(got.map(|_| ()), NON_FINITE, "{v}");
                let model = OneVsAllModel::from_classifiers(BTreeMap::from([(3, m)]), 0.0, 1);
                let mut frame = Vec::new();
                encode_linear_ova(&model, WeightPrecision::F64, &mut frame);
                let got = decode_linear_ova(&mut ByteReader::new(&bad(&frame)));
                assert_eq!(got.map(|_| ()), NON_FINITE, "{v}");
            }
            // A kernel alpha, bias, support-vector value and one-vs-all
            // threshold, alone and in a dictionary body.
            let sv = |value, alpha| SupportVector {
                vector: SparseVector::from_pairs([(1, value)]),
                label: true,
                alpha,
            };
            for (value, alpha, bias, threshold) in [
                (1.0, x, 0.5, 0.0),
                (1.0, 0.5, x, 0.0),
                (x, 0.5, 0.5, 0.0),
                (1.0, 0.5, 0.5, x),
            ] {
                let m = KernelSvm::from_support_vectors(vec![sv(value, alpha)], bias);
                if threshold == 0.0 {
                    let mut frame = Vec::new();
                    encode_kernel_svm(&m, WeightPrecision::F64, &mut frame);
                    let got = decode_kernel_svm(&mut ByteReader::new(&bad(&frame)));
                    assert_eq!(got.map(|_| ()), NON_FINITE, "{v}");
                }
                let model = OneVsAllModel::from_classifiers(BTreeMap::from([(3, m)]), threshold, 1);
                let got =
                    decode_kernel_ova(&mut ByteReader::new(&bad(&encoded_kernel_ova(&model))));
                assert_eq!(got.map(|_| ()), NON_FINITE, "{v}");
            }
        }
    }

    #[test]
    fn retired_kernel_tags_are_rejected_at_decode() {
        // The frames the RBF (tag 1, gamma) and polynomial (tag 2, gamma,
        // coef0, degree) kernels were once written as: the head's tag byte
        // and parameters, then the rest of an honest head.
        let sv = SupportVector {
            vector: SparseVector::from_pairs([(1, 1.0), (4, -0.5)]),
            label: true,
            alpha: 0.5,
        };
        let m = KernelSvm::from_support_vectors(vec![sv.clone()], 0.25);
        let mut rbf = vec![1];
        put_finite_f64(&mut rbf, 0.7);
        let mut polynomial = vec![2];
        put_finite_f64(&mut polynomial, 0.3);
        put_finite_f64(&mut polynomial, 1.0);
        put_varint(&mut polynomial, 3);
        let retag = |frame: &[u8], at: usize, tag: &[u8]| {
            assert_eq!(frame[at], KERNEL_LINEAR);
            [&frame[..at], tag, &frame[at + 1..]].concat()
        };
        let unknown = Err(CodecError::Invalid("unknown kernel tag"));
        let mut lone = Vec::new();
        encode_kernel_svm(&m, WeightPrecision::F64, &mut lone);
        let model = OneVsAllModel::from_classifiers(BTreeMap::from([(3, m)]), 0.0, 1);
        let dictionary = encoded_kernel_ova(&model);
        // The head follows the shell, the dictionary count and the one
        // dictionary vector.
        let mut head_at = Vec::new();
        put_ova_shell(&model, &mut head_at);
        put_varint(&mut head_at, 1);
        encode_vector(&sv.vector, &mut head_at);
        for tag in [&rbf[..], &polynomial[..], &[3], &[0xFF]] {
            let got = decode_kernel_svm(&mut ByteReader::new(&retag(&lone, 0, tag)));
            assert_eq!(got.map(|_| ()), unknown, "{tag:?}");
            let frame = retag(&dictionary, head_at.len(), tag);
            let got = decode_kernel_ova(&mut ByteReader::new(&frame));
            assert_eq!(got.map(|_| ()), unknown, "{tag:?}");
        }
    }

    #[test]
    fn truncated_and_corrupt_payloads_error() {
        let v = SparseVector::from_pairs([(3, 1.0), (900, -0.5)]);
        let mut buf = Vec::new();
        encode_vector(&v, &mut buf);
        for cut in 0..buf.len() {
            let mut r = ByteReader::new(&buf[..cut]);
            assert!(decode_vector(&mut r).is_err(), "cut at {cut}");
        }
        // Corrupt the index-block mode byte (first byte after the nnz varint).
        let mut corrupt = buf.clone();
        corrupt[1] = 9;
        assert!(decode_vector(&mut ByteReader::new(&corrupt)).is_err());
    }

    #[test]
    fn linear_model_roundtrips_bit_identically() {
        let (xs, ys) = crate::svm::test_util::separable(80, 3);
        let model = LinearSvmTrainer::default().train(&xs, &ys);
        let decoded = roundtrip(
            &model,
            |m, buf| encode_linear_svm(m, WeightPrecision::F64, buf),
            decode_linear_svm,
        );
        assert_eq!(model, decoded);
        for x in &xs {
            assert_eq!(model.decision(x).to_bits(), decoded.decision(x).to_bits());
        }
    }

    /// The linear body decoder [`decode_linear_svm`] replaced: the weights
    /// scattered into a dense vector of the frame's dimension, exact zeros
    /// included.
    fn decode_linear_dense(r: &mut ByteReader<'_>) -> (Vec<f64>, f64) {
        let dim = r.read_varint().unwrap() as usize;
        let bias = r.read_f64().unwrap();
        let nnz = r.read_count_of(1).unwrap();
        let indices = read_index_block(r, nnz).unwrap();
        let values = read_value_block(r, nnz).unwrap();
        let mut w = vec![0.0; dim];
        for (&i, v) in indices.iter().zip(values) {
            w[i as usize] = v;
        }
        (w, bias)
    }

    /// `m`'s frame equals the dense encoder's frame of `m.to_dense()`;
    /// decoding it and re-encoding gives the frame the dense decoder's vector
    /// re-encodes to. When `m` holds stand-ins, the frame with them forged
    /// non-finite is rejected.
    fn check_linear_frames_match_dense(m: &LinearSvm) {
        let mut sparse = Vec::new();
        encode_linear_svm(m, WeightPrecision::F64, &mut sparse);
        let mut dense = Vec::new();
        encode_linear_dense(&m.to_dense(), m.bias(), &mut dense);
        assert_eq!(sparse, dense);

        let decoded = decode_linear_svm(&mut ByteReader::new(&sparse)).unwrap();
        assert!(decoded.values().iter().all(|&v| v != 0.0));
        let (w, bias) = decode_linear_dense(&mut ByteReader::new(&sparse));
        let mut again = Vec::new();
        encode_linear_svm(&decoded, WeightPrecision::F64, &mut again);
        let mut dense = Vec::new();
        encode_linear_dense(&w, bias, &mut dense);
        assert_eq!(again, dense);

        if let Some(forged) = forged(&sparse) {
            let got = decode_linear_svm(&mut ByteReader::new(&forged));
            assert_eq!(got.map(|_| ()), NON_FINITE);
        }
    }

    #[test]
    fn linear_frames_equal_the_dense_encoders() {
        let (xs, ys) = crate::svm::test_util::separable(80, 3);
        check_linear_frames_match_dense(&LinearSvmTrainer::default().train(&xs, &ys));
        let ds = toy_dataset();
        let model = OneVsAllTrainer::default().train_linear_csr(&ds, &LinearSvmTrainer::default());
        for (_, clf) in model.iter() {
            check_linear_frames_match_dense(clf);
        }
        // Empty weights, a trailing zero that only the dimension remembers,
        // and NaN and infinite weights, whose frames are rejected.
        for w in [
            vec![],
            vec![0.0, 0.0],
            vec![f64::NAN, 0.0, -1.0, f64::INFINITY, 0.0],
        ] {
            let w: Vec<f64> = w.into_iter().map(stand_in).collect();
            check_linear_frames_match_dense(&LinearSvm::from_dense(&w, -0.5));
        }
    }

    #[test]
    fn a_zero_linear_weight_is_rejected_at_decode() {
        // No model stores a zero weight, so no encoder writes one: a frame
        // carrying one (of either sign), alone or in a one-vs-all body, is
        // invalid rather than a model that drops it.
        let zero = Err(CodecError::Invalid("zero weight"));
        let m = LinearSvm::from_dense(&[1.0, 0.0, 0.375, -2.0], 0.25);
        let model = OneVsAllModel::from_classifiers(BTreeMap::from([(4, m.clone())]), 0.0, 1);
        for z in [0.0, -0.0] {
            let mut frame = Vec::new();
            encode_linear_svm(&m, WeightPrecision::F64, &mut frame);
            assert!(forge(&mut frame, 0.375, z));
            let got = decode_linear_svm(&mut ByteReader::new(&frame));
            assert_eq!(got.map(|_| ()), zero, "{z}");
            let mut frame = Vec::new();
            encode_linear_ova(&model, WeightPrecision::F64, &mut frame);
            assert!(forge(&mut frame, 0.375, z));
            let got = decode_linear_ova(&mut ByteReader::new(&frame));
            assert_eq!(got.map(|_| ()), zero, "{z}");
        }
    }

    #[test]
    fn linear_frames_with_a_dimension_past_the_cap_or_an_index_past_it_are_rejected() {
        let body = |dim: u64, indices: &[u32]| {
            let mut buf = Vec::new();
            put_varint(&mut buf, dim);
            put_f64(&mut buf, 0.0);
            put_varint(&mut buf, indices.len() as u64);
            put_index_block(indices, &mut buf);
            put_value_block(&vec![1.0; indices.len()], &mut buf);
            buf
        };
        let decode = |buf: Vec<u8>| decode_linear_svm(&mut ByteReader::new(&buf));
        let cap = MAX_WEIGHT_DIM as u64;
        assert!(decode(body(cap, &[0, 7])).is_ok());
        assert_eq!(
            decode(body(cap + 1, &[])),
            Err(CodecError::Invalid("weight dimension exceeds decode cap"))
        );
        assert!(decode(body(8, &[2, 7])).is_ok());
        for indices in [&[2u32, 8][..], &[8], &[0, 3, u32::MAX]] {
            assert_eq!(
                decode(body(8, indices)),
                Err(CodecError::Invalid("weight index out of range")),
                "{indices:?}"
            );
        }
    }

    #[test]
    fn kernel_model_roundtrips_bit_identically() {
        let (xs, ys) = crate::svm::test_util::xor(60, 4);
        let model = KernelSvmTrainer::default().train(&xs, &ys);
        let decoded = roundtrip(
            &model,
            |m, buf| encode_kernel_svm(m, WeightPrecision::F64, buf),
            decode_kernel_svm,
        );
        assert_eq!(model, decoded);
        for x in &xs {
            assert_eq!(model.decision(x).to_bits(), decoded.decision(x).to_bits());
        }
    }

    fn toy_dataset() -> MultiLabelDataset {
        let mut ds = MultiLabelDataset::new();
        for i in 0..25 {
            let s = 1.0 + (i % 4) as f64 * 0.1;
            ds.push(MultiLabelExample::new(
                SparseVector::from_pairs([(0, s)]),
                [1],
            ));
            ds.push(MultiLabelExample::new(
                SparseVector::from_pairs([(1, s)]),
                [2],
            ));
            ds.push(MultiLabelExample::new(
                SparseVector::from_pairs([(0, s), (1, s), (7, 0.3)]),
                [1, 2],
            ));
        }
        ds
    }

    /// The per-tag linear body [`encode_linear_ova`] replaced, kept as its
    /// oracle: the shell, then each tag's [`encode_linear_svm`], every tag
    /// writing its own index block.
    fn encode_linear_ova_per_tag(model: &OneVsAllModel<LinearSvm>, buf: &mut Vec<u8>) {
        put_ova_shell(model, buf);
        for (_, clf) in model.iter() {
            encode_linear_svm(clf, WeightPrecision::F64, buf);
        }
    }

    /// The oracle body's decoder: the shell, then [`decode_linear_svm`] per
    /// tag.
    fn decode_linear_ova_per_tag(r: &mut ByteReader<'_>) -> OneVsAllModel<LinearSvm> {
        let (threshold, min_tags, tags) = read_ova_shell(r).unwrap();
        let classifiers = tags
            .into_iter()
            .map(|tag| (tag, decode_linear_svm(r).unwrap()))
            .collect();
        OneVsAllModel::from_classifiers(classifiers, threshold, min_tags)
    }

    /// Dimension, indices, value bits and bias bits all equal (NaN weights
    /// included, which `==` would call unequal).
    fn linear_bit_eq(a: &LinearSvm, b: &LinearSvm) -> bool {
        let bits = |m: &LinearSvm| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        a.dim() == b.dim()
            && a.indices() == b.indices()
            && bits(a) == bits(b)
            && a.bias().to_bits() == b.bias().to_bits()
    }

    fn linear_ova_bit_eq(a: &OneVsAllModel<LinearSvm>, b: &OneVsAllModel<LinearSvm>) -> bool {
        a.threshold().to_bits() == b.threshold().to_bits()
            && a.min_tags() == b.min_tags()
            && a.num_tags() == b.num_tags()
            && a.iter()
                .zip(b.iter())
                .all(|((ta, ca), (tb, cb))| ta == tb && linear_bit_eq(ca, cb))
    }

    fn index_block_len(indices: &[u32]) -> usize {
        let mut buf = Vec::new();
        put_index_block(indices, &mut buf);
        buf.len()
    }

    /// Checks a linear one-vs-all frame against the per-tag oracle: both
    /// decode to the model bit for bit, the decoded model re-encodes to the
    /// same bytes, and the frame is the oracle's bytes minus each tag's
    /// count and index block, plus the support block once and each tag's
    /// mode byte and bitmap. When the model holds stand-ins, the frame with
    /// them forged non-finite is rejected.
    fn check_linear_ova_frame(model: &OneVsAllModel<LinearSvm>) {
        let support: Vec<u32> = linear_support(model).into_owned();
        let mut frame = Vec::new();
        encode_linear_ova(model, WeightPrecision::F64, &mut frame);
        let mut r = ByteReader::new(&frame);
        let decoded = decode_linear_ova(&mut r).expect("decodes");
        assert_eq!(r.remaining(), 0);
        let mut oracle = Vec::new();
        encode_linear_ova_per_tag(model, &mut oracle);
        let want = decode_linear_ova_per_tag(&mut ByteReader::new(&oracle));
        assert!(linear_ova_bit_eq(&decoded, &want));
        assert!(linear_ova_bit_eq(&decoded, model));
        let mut again = Vec::new();
        encode_linear_ova(&decoded, WeightPrecision::F64, &mut again);
        assert_eq!(again, frame);
        let (mut removed, mut added) = (0, 0);
        added += varint_len(support.len() as u64) + index_block_len(&support);
        for (_, clf) in model.iter() {
            removed += varint_len(clf.nonzero_weights() as u64) + index_block_len(clf.indices());
            added += 1;
            if clf.indices() != support.as_slice() {
                added += support.len().div_ceil(8);
            }
        }
        assert_eq!(frame.len() + removed, oracle.len() + added);

        if let Some(forged) = forged(&frame) {
            let got = decode_linear_ova(&mut ByteReader::new(&forged));
            assert_eq!(got.map(|_| ()), NON_FINITE);
        }
    }

    #[test]
    fn linear_ova_frame_writes_the_shared_support_once() {
        let ds = toy_dataset();
        let model = OneVsAllTrainer::default().train_linear_csr(&ds, &LinearSvmTrainer::default());
        assert!(model.num_tags() >= 2);
        let support = model.iter().next().unwrap().1.indices().to_vec();
        assert!(
            model
                .iter()
                .all(|(_, clf)| clf.indices() == support.as_slice()),
            "one peer's tags share their support"
        );
        check_linear_ova_frame(&model);
        let (mut frame, mut oracle) = (Vec::new(), Vec::new());
        encode_linear_ova(&model, WeightPrecision::F64, &mut frame);
        encode_linear_ova_per_tag(&model, &mut oracle);
        assert!(
            frame.len() < oracle.len(),
            "{} vs {}",
            frame.len(),
            oracle.len()
        );
        // Differing supports, a tag with no weights, and the empty model.
        let mut classifiers = BTreeMap::new();
        classifiers.insert(1, LinearSvm::from_dense(&[0.5, 0.0, -1.0, 2.0], 0.1));
        classifiers.insert(
            4,
            LinearSvm::from_dense(&[0.0, 0.0, 3.0, 0.0, 0.0, 0.0], -0.2),
        );
        classifiers.insert(6, LinearSvm::from_dense(&[0.0; 9], 0.0));
        classifiers.insert(9, LinearSvm::from_dense(&[0.0, 0.25, 0.0, 0.0, 1.5], 0.3));
        check_linear_ova_frame(&OneVsAllModel::from_classifiers(classifiers, 0.0, 1));
        check_linear_ova_frame(&OneVsAllModel::from_classifiers(BTreeMap::new(), 0.5, 2));
    }

    /// A hand-written linear one-vs-all body: a shell over tags
    /// `0..tags.len()`, the `support`, then per tag its dimension, a zero
    /// bias, its mode byte, its bitmap bytes and `values` f64 weights.
    fn linear_ova_body(support: &[u32], tags: &[(u64, u8, &[u8], usize)]) -> Vec<u8> {
        let mut body = Vec::new();
        put_f64(&mut body, 0.0);
        put_varint(&mut body, 1);
        put_varint(&mut body, tags.len() as u64);
        if !tags.is_empty() {
            body.extend_from_slice(&[IDX_CONTIGUOUS, 0]);
        }
        put_varint(&mut body, support.len() as u64);
        put_index_block(support, &mut body);
        for &(dim, mode, bits, values) in tags {
            put_varint(&mut body, dim);
            put_f64(&mut body, 0.0);
            body.push(mode);
            body.extend_from_slice(bits);
            put_value_block(&vec![1.0; values], &mut body);
        }
        body
    }

    #[test]
    fn malformed_support_blocks_are_rejected() {
        let decode = |body: Vec<u8>| decode_linear_ova(&mut ByteReader::new(&body)).err();
        let support = [2u32, 5, 9];
        // The well-formed shapes decode: whole support, and a bitmap.
        let good = linear_ova_body(&support, &[(10, 0, &[], 3), (10, 1, &[0b101], 2)]);
        let model = decode_linear_ova(&mut ByteReader::new(&good)).unwrap();
        assert_eq!(model.classifier(1).unwrap().indices(), &[2, 9]);
        assert_eq!(
            decode(linear_ova_body(&support, &[(10, 2, &[], 3)])),
            Some(CodecError::Invalid("unknown support mode"))
        );
        assert_eq!(
            decode(linear_ova_body(
                &support,
                &[(10, 0, &[], 3), (10, 1, &[0b1001], 2)]
            )),
            Some(CodecError::Invalid(
                "support bitmap sets a bit past the support"
            ))
        );
        assert_eq!(
            decode(linear_ova_body(&support, &[(10, 1, &[0b111], 3)])),
            Some(CodecError::Invalid(
                "support bitmap selects the whole support"
            ))
        );
        assert_eq!(
            decode(linear_ova_body(&support, &[(10, 1, &[0b011], 2)])),
            Some(CodecError::Invalid("unheld support index"))
        );
        // Index 9 is past a dimension of 9; the whole support fits in 10.
        assert_eq!(
            decode(linear_ova_body(&support, &[(9, 0, &[], 3)])),
            Some(CodecError::Invalid("weight index out of range"))
        );
        assert_eq!(
            decode(linear_ova_body(
                &support,
                &[(10, 0, &[], 3), (9, 1, &[0b100], 1)]
            )),
            Some(CodecError::Invalid("weight index out of range"))
        );
        assert!(decode(linear_ova_body(
            &support,
            &[(10, 0, &[], 3), (9, 1, &[0b011], 2)]
        ))
        .is_none());
        assert_eq!(
            decode(linear_ova_body(
                &support,
                &[(MAX_WEIGHT_DIM as u64 + 1, 0, &[], 3)]
            )),
            Some(CodecError::Invalid("weight dimension exceeds decode cap"))
        );
        // Every cut of the good body fails cleanly.
        for cut in 0..good.len() {
            assert!(decode(good[..cut].to_vec()).is_some(), "cut at {cut}");
        }
    }

    #[test]
    fn linear_ova_roundtrip_preserves_scores() {
        let ds = toy_dataset();
        let model = OneVsAllTrainer::default().train_linear(&ds, &LinearSvmTrainer::default());
        let mut buf = Vec::new();
        encode_linear_ova(&model, WeightPrecision::F64, &mut buf);
        let decoded = decode_linear_ova(&mut ByteReader::new(&buf)).unwrap();
        assert_eq!(decoded.num_tags(), model.num_tags());
        assert_eq!(decoded.threshold(), model.threshold());
        assert_eq!(decoded.min_tags(), model.min_tags());
        for (x, _) in ds.iter() {
            assert_eq!(model.scores(x), decoded.scores(x));
            assert_eq!(model.predict(x), decoded.predict(x));
        }
    }

    #[test]
    fn kernel_ova_roundtrip_preserves_scores() {
        let ds = toy_dataset();
        let model = OneVsAllTrainer::default().train_kernel(&ds, &KernelSvmTrainer::default());
        let mut buf = Vec::new();
        encode_kernel_ova(&model, WeightPrecision::F64, &mut buf);
        let decoded = decode_kernel_ova(&mut ByteReader::new(&buf)).unwrap();
        for (x, _) in ds.iter() {
            assert_eq!(model.scores(x), decoded.scores(x));
        }
    }

    /// The per-tag kernel body [`encode_kernel_ova`] replaced, kept as its
    /// oracle: the shell, then each tag's [`encode_kernel_svm`], every
    /// support vector written in full.
    fn encode_kernel_ova_per_tag(model: &OneVsAllModel<KernelSvm>, buf: &mut Vec<u8>) {
        put_ova_shell(model, buf);
        for (_, clf) in model.iter() {
            encode_kernel_svm(clf, WeightPrecision::F64, buf);
        }
    }

    fn encoded_kernel_ova(model: &OneVsAllModel<KernelSvm>) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_kernel_ova(model, WeightPrecision::F64, &mut buf);
        buf
    }

    /// A vector's content as a map key: indices and value bits.
    fn content(v: &SparseVector) -> (Vec<u32>, Vec<u64>) {
        let bits = v.values().iter().map(|x| x.to_bits()).collect();
        (v.indices().to_vec(), bits)
    }

    /// Checks a kernel one-vs-all frame against the model it encodes and the
    /// per-tag oracle: every tag decodes bit-equal, content-equal vectors
    /// decode into one allocation, re-encoding reproduces the frame byte for
    /// byte, and the frame is the oracle's bytes minus each repeated
    /// vector's encoding plus the dictionary count and one id per support
    /// vector (ids in first-appearance order by content). When the model
    /// holds stand-ins, the frame with them forged non-finite is rejected.
    fn check_kernel_ova_frame(model: &OneVsAllModel<KernelSvm>) {
        let frame = encoded_kernel_ova(model);
        let mut r = ByteReader::new(&frame);
        let decoded = decode_kernel_ova(&mut r).expect("decodes");
        assert_eq!(r.remaining(), 0);
        assert_eq!(decoded.threshold().to_bits(), model.threshold().to_bits());
        assert_eq!(decoded.min_tags(), model.min_tags());
        assert_eq!(decoded.num_tags(), model.num_tags());
        for ((tag, want), (got_tag, got)) in model.iter().zip(decoded.iter()) {
            assert_eq!(tag, got_tag);
            assert!(got.bit_eq(want), "tag {}", tag);
        }
        let vectors: Vec<&SparseVector> = decoded
            .iter()
            .flat_map(|(_, clf)| clf.support_vectors())
            .map(|sv| &sv.vector)
            .collect();
        for a in &vectors {
            for b in &vectors {
                if content(a) == content(b) {
                    assert!(a.shares_storage_with(b));
                }
            }
        }
        assert_eq!(&encoded_kernel_ova(&decoded), &frame);

        let mut oracle = Vec::new();
        encode_kernel_ova_per_tag(model, &mut oracle);
        let mut ids: BTreeMap<(Vec<u32>, Vec<u64>), u64> = BTreeMap::new();
        let (mut saved, mut added) = (0usize, 0usize);
        for (_, clf) in model.iter() {
            for sv in clf.support_vectors() {
                let next = ids.len() as u64;
                let id = *ids.entry(content(&sv.vector)).or_insert(next);
                if id != next {
                    let mut repeat = Vec::new();
                    encode_vector(&sv.vector, &mut repeat);
                    saved += repeat.len();
                }
                added += varint_len(id);
            }
        }
        added += varint_len(ids.len() as u64);
        assert_eq!(frame.len() + saved, oracle.len() + added);

        if let Some(forged) = forged(&frame) {
            let got = decode_kernel_ova(&mut ByteReader::new(&forged));
            assert_eq!(got.map(|_| ()), NON_FINITE);
        }
    }

    #[test]
    fn kernel_ova_frame_writes_each_distinct_vector_once() {
        let ds = toy_dataset();
        let model = OneVsAllTrainer::default().train_kernel(&ds, &KernelSvmTrainer::default());
        check_kernel_ova_frame(&model);
        let mut oracle = Vec::new();
        encode_kernel_ova_per_tag(&model, &mut oracle);
        let frame = encoded_kernel_ova(&model);
        // Both tags draw their support vectors from one peer's documents.
        assert!(
            frame.len() < oracle.len(),
            "{} vs {}",
            frame.len(),
            oracle.len()
        );
        // The empty model: a shell and an empty dictionary.
        let empty = OneVsAllModel::<KernelSvm>::from_classifiers(BTreeMap::new(), 0.5, 1);
        check_kernel_ova_frame(&empty);
    }

    #[test]
    fn kernel_ova_frames_of_the_old_layout_do_not_decode() {
        // A per-tag body reads its first support vector's `nnz` where the
        // dictionary count belongs, and what follows then fails to parse.
        let ds = toy_dataset();
        let model = OneVsAllTrainer::default().train_kernel(&ds, &KernelSvmTrainer::default());
        let mut oracle = Vec::new();
        encode_kernel_ova_per_tag(&model, &mut oracle);
        assert!(decode_kernel_ova(&mut ByteReader::new(&oracle)).is_err());
    }

    #[test]
    fn counts_the_payload_cannot_fill_are_rejected_before_reserving() {
        let too_many = Some(CodecError::Invalid("count exceeds payload size"));
        // A reservation of `usize::MAX / 16` values or indices would abort
        // the process, so reaching the assertions shows none was made.
        let block = [VAL_F64, 0, 0, 0, 0, 1, 2, 3];
        let got = read_value_block(&mut ByteReader::new(&block), usize::MAX / 16);
        assert_eq!(got.err(), too_many);
        let delta = [IDX_DELTA, 0, 0, 0];
        let got = read_index_block(&mut ByteReader::new(&delta), usize::MAX / 16);
        assert_eq!(got.err(), too_many);
        let bitmap = [IDX_BITMAP, 0, 8, 0xFF];
        assert!(read_index_block(&mut ByteReader::new(&bitmap), usize::MAX / 16).is_err());

        // A vector whose contiguous index block (two bytes for any count)
        // claims more nonzeros than there are bytes left for their values.
        let mut body = Vec::new();
        put_varint(&mut body, 64);
        body.extend_from_slice(&[IDX_CONTIGUOUS, 0, VAL_F64]);
        body.extend_from_slice(&[1; 20]);
        assert_eq!(decode_vector(&mut ByteReader::new(&body)).err(), too_many);
        // A kernel SVM with more support vectors than bytes.
        let mut body = vec![0];
        put_f64(&mut body, 0.5);
        put_varint(&mut body, 40);
        body.extend_from_slice(&[0; 30]);
        assert_eq!(
            decode_kernel_svm(&mut ByteReader::new(&body)).err(),
            too_many
        );
        // A score list with more entries than nine-byte slots.
        let mut body = Vec::new();
        put_varint(&mut body, 10);
        body.extend_from_slice(&[0; 20]);
        assert_eq!(
            decode_predictions(&mut ByteReader::new(&body)).err(),
            too_many
        );
        // A kernel one-vs-all dictionary longer than two bytes per entry.
        let mut body = Vec::new();
        put_f64(&mut body, 0.0);
        put_varint(&mut body, 1);
        put_varint(&mut body, 0);
        put_varint(&mut body, 50);
        body.extend_from_slice(&[0; 20]);
        let got = decode_kernel_ova(&mut ByteReader::new(&body));
        assert_eq!(got.err(), too_many);
        // A tag whose ids cannot all be there.
        let mut body = Vec::new();
        put_f64(&mut body, 0.0);
        put_varint(&mut body, 1);
        put_varint(&mut body, 1);
        body.extend_from_slice(&[IDX_CONTIGUOUS, 3]);
        put_varint(&mut body, 0);
        body.push(0);
        put_f64(&mut body, 0.5);
        put_varint(&mut body, 200);
        body.extend_from_slice(&[0; 40]);
        let got = decode_kernel_ova(&mut ByteReader::new(&body));
        assert_eq!(got.err(), too_many);
    }

    fn arb_vector() -> impl Strategy<Value = SparseVector> {
        prop::collection::vec((0u32..5_000, -3.0f64..3.0), 0..40).prop_map(SparseVector::from_pairs)
    }

    fn arb_example() -> impl Strategy<Value = MultiLabelExample> {
        (arb_vector(), prop::collection::btree_set(0u32..200, 0..6))
            .prop_map(|(v, tags)| MultiLabelExample::new(v, tags))
    }

    /// Dense weights of which many are zero, small, tiny or not finite.
    fn wild_weight() -> impl Strategy<Value = f64> {
        (0u8..10, -4.0f64..4.0).prop_map(|(pick, v)| match pick {
            0 | 1 => 0.0,
            2 => v * 1e-3,
            3 => v * 1e-45,
            4 => [f64::NAN, f64::INFINITY, -f64::INFINITY, -0.0][(v.abs() as usize).min(3)],
            _ => v,
        })
    }

    /// A model of wild weights, each non-finite one held as its stand-in.
    fn arb_wild_linear_svm() -> impl Strategy<Value = LinearSvm> {
        (prop::collection::vec(wild_weight(), 0..40), -2.0f64..2.0).prop_map(|(weights, bias)| {
            let weights: Vec<f64> = weights.into_iter().map(stand_in).collect();
            LinearSvm::from_dense(&weights, bias)
        })
    }

    fn arb_linear_svm() -> impl Strategy<Value = LinearSvm> {
        (prop::collection::vec(-4.0f64..4.0, 0..60), -2.0f64..2.0)
            .prop_map(|(weights, bias)| LinearSvm::from_dense(&weights, bias))
    }

    fn arb_kernel_svm() -> impl Strategy<Value = KernelSvm> {
        (
            prop::collection::vec((arb_vector(), any::<bool>(), 0.01f64..3.0), 0..12),
            -2.0f64..2.0,
        )
            .prop_map(|(svs, bias)| {
                let svs = svs
                    .into_iter()
                    .map(|(vector, label, alpha)| SupportVector {
                        vector,
                        label,
                        alpha,
                    })
                    .collect();
                KernelSvm::from_support_vectors(svs, bias)
            })
    }

    fn arb_linear_classifiers() -> impl Strategy<Value = BTreeMap<TagId, LinearSvm>> {
        prop::collection::vec((0u32..300, arb_linear_svm()), 0..6)
            .prop_map(|pairs| pairs.into_iter().collect())
    }

    fn arb_predictions() -> impl Strategy<Value = Vec<TagPrediction>> {
        // Confidence is canonically logistic(score) on the wire — generate
        // predictions the way every response producer builds them.
        prop::collection::vec((0u32..10_000, -5.0f64..5.0), 0..30).prop_map(|entries| {
            entries
                .into_iter()
                .map(|(tag, score)| TagPrediction {
                    tag,
                    score,
                    confidence: 1.0 / (1.0 + (-score).exp()),
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_vector_roundtrip(v in arb_vector()) {
            let decoded = roundtrip(&v, encode_vector, decode_vector);
            prop_assert_eq!(&decoded, &v);
        }

        #[test]
        fn prop_vectors_roundtrip(vs in prop::collection::vec(arb_vector(), 0..8)) {
            let decoded = roundtrip(&vs, |vs, b| encode_vectors(vs, b), decode_vectors);
            prop_assert_eq!(&decoded, &vs);
        }

        #[test]
        fn prop_linear_frames_equal_the_dense_encoders(m in arb_linear_svm(), wild in arb_wild_linear_svm()) {
            check_linear_frames_match_dense(&m);
            check_linear_frames_match_dense(&wild);
        }

        #[test]
        fn prop_linear_svm_roundtrip_scores_bit_identical(m in arb_linear_svm(), probes in prop::collection::vec(arb_vector(), 1..6)) {
            let decoded = roundtrip(&m, |m, b| encode_linear_svm(m, WeightPrecision::F64, b), decode_linear_svm);
            prop_assert_eq!(&decoded, &m);
            for p in &probes {
                prop_assert_eq!(m.decision(p).to_bits(), decoded.decision(p).to_bits());
            }
        }

        #[test]
        fn prop_kernel_svm_roundtrip_scores_bit_identical(m in arb_kernel_svm(), probes in prop::collection::vec(arb_vector(), 1..4)) {
            let decoded = roundtrip(&m, |m, b| encode_kernel_svm(m, WeightPrecision::F64, b), decode_kernel_svm);
            prop_assert_eq!(&decoded, &m);
            for p in &probes {
                prop_assert_eq!(m.decision(p).to_bits(), decoded.decision(p).to_bits());
            }
        }

        #[test]
        fn prop_kernel_ova_dictionary_roundtrip(
            pool in prop::collection::vec(crate::kernel::wild::vector(12), 1..6),
            tags in prop::collection::vec(
                (
                    crate::kernel::wild::value(),
                    prop::collection::vec(
                        (0usize..6, any::<bool>(), any::<bool>(), crate::kernel::wild::value()),
                        0..6,
                    ),
                ),
                0..5,
            ),
            threshold in -1.0f64..1.0,
            min_tags in 0usize..3,
        ) {
            // Tags draw support vectors from one pool, each either sharing
            // the pool vector's storage or holding a content-equal copy.
            // Non-finite values are held as their stand-ins.
            let copy = |v: &SparseVector| SparseVector::from_sorted_pairs(v.iter());
            let pool: Vec<SparseVector> = pool
                .iter()
                .map(|v| SparseVector::from_sorted_pairs(v.iter().map(|(i, x)| (i, stand_in(x)))))
                .collect();
            let build = |deep: bool| {
                let classifiers = tags
                    .iter()
                    .enumerate()
                    .map(|(t, (bias, svs))| {
                        let svs = svs
                            .iter()
                            .map(|&(pick, shared, label, alpha)| {
                                let v = &pool[pick % pool.len()];
                                SupportVector {
                                    vector: if shared && !deep { v.clone() } else { copy(v) },
                                    label,
                                    alpha: stand_in(alpha),
                                }
                            })
                            .collect();
                        let bias = stand_in(*bias);
                        (3 * t as TagId, KernelSvm::from_support_vectors(svs, bias))
                    })
                    .collect();
                OneVsAllModel::from_classifiers(classifiers, threshold, min_tags)
            };
            let model = build(false);
            check_kernel_ova_frame(&model);
            // The frame depends on content only, not on storage history.
            prop_assert_eq!(encoded_kernel_ova(&build(true)), encoded_kernel_ova(&model));
        }

        #[test]
        fn prop_shared_support_body_matches_the_per_tag_oracle(
            pool in prop::collection::btree_set(0u32..40, 0..12),
            tags in prop::collection::vec(
                (0u8..4, prop::collection::vec((any::<bool>(), wild_weight()), 12..13), 0usize..3, -2.0f64..2.0),
                0..5,
            ),
            threshold in -1.0f64..1.0,
            min_tags in 0usize..3,
        ) {
            // Each tag holds the whole pool, a masked part of it, nothing,
            // or the pool plus a feature of its own; its dimension sits just
            // past its last feature or a little further. Wild weights add
            // tiny values, stand-ins of non-finite ones and exact zeros
            // (which leave the tag's support).
            let classifiers = tags
                .iter()
                .enumerate()
                .map(|(t, (mode, weights, extra_dim, bias))| {
                    let mut features: Vec<u32> = match mode {
                        0 => pool.iter().copied().collect(),
                        1 => pool.iter().zip(weights).filter(|(_, (keep, _))| *keep).map(|(&j, _)| j).collect(),
                        2 => Vec::new(),
                        _ => pool.iter().copied().chain([40 + t as u32]).collect(),
                    };
                    features.sort_unstable();
                    let dim = features.last().map_or(0, |&j| j as usize + 1) + extra_dim;
                    let mut dense = vec![0.0; dim];
                    for (k, &j) in features.iter().enumerate() {
                        dense[j as usize] = stand_in(weights[k % weights.len()].1);
                    }
                    (3 * t as TagId, LinearSvm::from_dense(&dense, *bias))
                })
                .collect();
            check_linear_ova_frame(&OneVsAllModel::from_classifiers(classifiers, threshold, min_tags));
        }

        #[test]
        fn prop_linear_ova_roundtrip(models in arb_linear_classifiers(), threshold in -1.0f64..1.0, min_tags in 0usize..4) {
            let model = OneVsAllModel::from_classifiers(models, threshold, min_tags);
            let mut buf = Vec::new();
            encode_linear_ova(&model, WeightPrecision::F64, &mut buf);
            let mut r = ByteReader::new(&buf);
            let decoded = decode_linear_ova(&mut r).unwrap();
            prop_assert_eq!(r.remaining(), 0);
            prop_assert_eq!(decoded.num_tags(), model.num_tags());
            for ((ta, ca), (tb, cb)) in model.iter().zip(decoded.iter()) {
                prop_assert_eq!(ta, tb);
                prop_assert_eq!(ca, cb);
            }
        }

        #[test]
        fn prop_example_roundtrip(ex in arb_example()) {
            let decoded = roundtrip(&ex, encode_example, decode_example);
            prop_assert_eq!(&decoded, &ex);
        }

        #[test]
        fn prop_dataset_roundtrip(examples in prop::collection::vec(arb_example(), 0..12)) {
            let ds = MultiLabelDataset::from_examples(examples);
            let decoded = roundtrip(&ds, encode_dataset, decode_dataset);
            prop_assert_eq!(&decoded, &ds);
        }

        #[test]
        fn prop_predictions_roundtrip(preds in arb_predictions()) {
            let mut buf = Vec::new();
            encode_predictions(&preds, &mut buf);
            let mut r = ByteReader::new(&buf);
            let decoded = decode_predictions(&mut r).unwrap();
            prop_assert_eq!(r.remaining(), 0);
            prop_assert_eq!(&decoded, &preds);
        }
    }
}
