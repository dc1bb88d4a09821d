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
//! * **Value blocks** — the parallel `f64` payload values, at one of three
//!   precisions ([`WeightPrecision`]): lossless little-endian `f64` (the
//!   default — decoded models are **bit-identical**), `f32`, or `q8` (8-bit
//!   linear quantization against the block's max magnitude, Golder &
//!   Huberman-style power-law weight distributions tolerate this well). The
//!   precision tag is stored in the block, so decoding is self-describing.
//!
//! Framing (magic, version, payload kind) is the transport's concern and
//! lives in `p2pclassify::wire`; this module encodes payload bodies only.
//!
//! # Kernel model bodies
//!
//! A document is a support vector of several of its tags, so a kernel
//! one-vs-all model ([`encode_kernel_ova`]) is written as a dictionary:
//! each distinct vector once (equal indices and value bits are one
//! vector), then per tag its kernel, bias, labels, dual coefficients and
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
//! # Propagation pruning
//!
//! [`prune_top_k`] keeps only the `k` largest-magnitude weights per tag — the
//! classic model-compression move for power-law-distributed term weights.
//! [`prune_model_guarded`] makes it safe to apply blindly during propagation:
//! the pruned model is accepted only when its mean per-tag training accuracy
//! stays within a configured budget of the full model's.

use crate::data::{MultiLabelDataset, MultiLabelExample, TagId};
use crate::distinct::DistinctIds;
use crate::kernel::Kernel;
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
/// coefficients) are put on the wire.
///
/// [`WeightPrecision::F64`] round-trips bit-identically; the lossy modes trade
/// bytes for a measured macro-F1 delta (reported by the `wire` benchmark).
/// Document vectors, centroids and score payloads are always shipped at `f64`:
/// only *model* weights are quantization candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WeightPrecision {
    /// Lossless IEEE-754 double precision (8 bytes per value).
    #[default]
    F64,
    /// Single precision (4 bytes per value).
    F32,
    /// 8-bit linear quantization against the value block's max magnitude
    /// (1 byte per value + a 4-byte scale per block).
    Q8,
}

impl WeightPrecision {
    /// Stable display name for benchmark tables.
    pub fn name(self) -> &'static str {
        match self {
            WeightPrecision::F64 => "f64",
            WeightPrecision::F32 => "f32",
            WeightPrecision::Q8 => "q8",
        }
    }
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

    /// Reads a little-endian `f32`.
    pub fn read_f32(&mut self) -> Result<f32, CodecError> {
        let raw = self.read_bytes(4)?;
        Ok(f32::from_le_bytes(raw.try_into().expect("4 bytes")))
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

const VAL_F64: u8 = 0;
const VAL_F32: u8 = 1;
const VAL_Q8: u8 = 2;

/// Encodes a parallel value block at the requested precision.
fn put_value_block(values: &[f64], precision: WeightPrecision, buf: &mut Vec<u8>) {
    match precision {
        WeightPrecision::F64 => {
            buf.push(VAL_F64);
            for &v in values {
                put_f64(buf, v);
            }
        }
        WeightPrecision::F32 => {
            buf.push(VAL_F32);
            for &v in values {
                buf.extend_from_slice(&(v as f32).to_le_bytes());
            }
        }
        WeightPrecision::Q8 => {
            buf.push(VAL_Q8);
            let max_abs = values.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            buf.extend_from_slice(&(max_abs as f32).to_le_bytes());
            let scale = if max_abs > 0.0 { 127.0 / max_abs } else { 0.0 };
            for &v in values {
                let q = (v * scale).round().clamp(-127.0, 127.0) as i8;
                buf.push(q as u8);
            }
        }
    }
}

/// Decodes a value block of `count` values (the precision tag is read from
/// the stream, so decoding works whatever the encoder chose).
fn read_value_block(r: &mut ByteReader<'_>, count: usize) -> Result<Vec<f64>, CodecError> {
    let tag = r.read_byte()?;
    let mut out = Vec::new();
    match tag {
        VAL_F64 => {
            r.check_fits(count as u64, 8)?;
            out.reserve_exact(count);
            for _ in 0..count {
                out.push(r.read_f64()?);
            }
        }
        VAL_F32 => {
            r.check_fits(count as u64, 4)?;
            out.reserve_exact(count);
            for _ in 0..count {
                out.push(f64::from(r.read_f32()?));
            }
        }
        VAL_Q8 => {
            let max_abs = f64::from(r.read_f32()?);
            let step = max_abs / 127.0;
            r.check_fits(count as u64, 1)?;
            out.reserve_exact(count);
            for _ in 0..count {
                let q = r.read_byte()? as i8;
                out.push(f64::from(q) * step);
            }
        }
        _ => return Err(CodecError::Invalid("unknown value block precision")),
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
    put_value_block(v.values(), WeightPrecision::F64, buf);
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
/// index block + value block at the requested precision.
pub fn encode_linear_svm(m: &LinearSvm, precision: WeightPrecision, buf: &mut Vec<u8>) {
    let w = m.weights();
    put_varint(buf, w.len() as u64);
    put_f64(buf, m.bias());
    let (indices, values): (Vec<u32>, Vec<f64>) = w
        .iter()
        .enumerate()
        .filter(|&(_, &v)| v != 0.0)
        .map(|(i, &v)| (i as u32, v))
        .unzip();
    put_varint(buf, indices.len() as u64);
    put_index_block(&indices, buf);
    put_value_block(&values, precision, buf);
}

/// Largest dense weight dimension [`decode_linear_svm`] will materialize
/// (16 M features ≈ 128 MiB of `f64`s) — an order of magnitude above any
/// realistic lexicon, but small enough that a corrupt dimension prefix in a
/// frame cannot request an absurd allocation.
pub const MAX_WEIGHT_DIM: usize = 1 << 24;

/// Decodes a linear SVM back to its dense weight vector form.
pub fn decode_linear_svm(r: &mut ByteReader<'_>) -> Result<LinearSvm, CodecError> {
    let dim = r.read_varint()?;
    if dim > MAX_WEIGHT_DIM as u64 {
        return Err(CodecError::Invalid("weight dimension exceeds decode cap"));
    }
    let dim = dim as usize;
    let bias = r.read_f64()?;
    let nnz = r.read_count_of(1)?;
    let indices = read_index_block(r, nnz)?;
    let values = read_value_block(r, nnz)?;
    let mut w = vec![0.0; dim];
    for (&i, v) in indices.iter().zip(values) {
        let i = i as usize;
        if i >= dim {
            return Err(CodecError::Invalid("weight index out of range"));
        }
        w[i] = v;
    }
    Ok(LinearSvm::from_weights(w, bias))
}

/// Encodes the kernel function tag + parameters.
fn put_kernel(k: Kernel, buf: &mut Vec<u8>) {
    match k {
        Kernel::Linear => buf.push(0),
        Kernel::Rbf { gamma } => {
            buf.push(1);
            put_f64(buf, gamma);
        }
        Kernel::Polynomial {
            gamma,
            coef0,
            degree,
        } => {
            buf.push(2);
            put_f64(buf, gamma);
            put_f64(buf, coef0);
            put_varint(buf, u64::from(degree));
        }
    }
}

fn read_kernel(r: &mut ByteReader<'_>) -> Result<Kernel, CodecError> {
    match r.read_byte()? {
        0 => Ok(Kernel::Linear),
        1 => Ok(Kernel::Rbf {
            gamma: r.read_f64()?,
        }),
        2 => Ok(Kernel::Polynomial {
            gamma: r.read_f64()?,
            coef0: r.read_f64()?,
            degree: u32::try_from(r.read_varint()?)
                .map_err(|_| CodecError::Invalid("polynomial degree overflows u32"))?,
        }),
        _ => Err(CodecError::Invalid("unknown kernel tag")),
    }
}

/// Writes a kernel SVM's head: kernel, bias, support-vector count, labels
/// as a bitmap and dual coefficients as one value block at the requested
/// precision. The support vectors' vectors follow, in whatever form the
/// body uses.
fn put_kernel_svm_head(m: &KernelSvm, precision: WeightPrecision, buf: &mut Vec<u8>) {
    put_kernel(m.kernel(), buf);
    put_f64(buf, m.bias());
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
    put_value_block(&alphas, precision, buf);
}

/// A decoded kernel SVM head: everything but the support vectors' vectors.
struct KernelSvmHead<'a> {
    kernel: Kernel,
    bias: f64,
    labels: &'a [u8],
    alphas: Vec<f64>,
}

impl KernelSvmHead<'_> {
    fn read<'a>(r: &mut ByteReader<'a>) -> Result<KernelSvmHead<'a>, CodecError> {
        let kernel = read_kernel(r)?;
        let bias = r.read_f64()?;
        // A support vector takes at least an alpha byte and a byte of its
        // vector (or of its dictionary id).
        let n = r.read_count_of(2)?;
        let labels = r.read_bytes(n.div_ceil(8))?;
        let alphas = read_value_block(r, n)?;
        Ok(KernelSvmHead {
            kernel,
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
        Ok(KernelSvm::from_support_vectors(svs, self.bias, self.kernel))
    }
}

/// Fewest bytes an encoded vector takes: its nonzero count and the value
/// block's precision tag.
const MIN_VECTOR_BYTES: usize = 2;

/// Encodes a kernel SVM on its own: its head, then each support vector's
/// vector losslessly.
pub fn encode_kernel_svm(m: &KernelSvm, precision: WeightPrecision, buf: &mut Vec<u8>) {
    put_kernel_svm_head(m, precision, buf);
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
    put_f64(buf, model.threshold());
    put_varint(buf, model.min_tags() as u64);
    let tags: Vec<TagId> = model.tags().collect();
    put_varint(buf, tags.len() as u64);
    put_index_block(&tags, buf);
}

/// Decodes a one-vs-all model shell to `(threshold, min_tags, tags)`.
fn read_ova_shell(r: &mut ByteReader<'_>) -> Result<(f64, usize, Vec<TagId>), CodecError> {
    let threshold = r.read_f64()?;
    let min_tags = r.read_varint()? as usize;
    // Every tag has a classifier body of at least a byte.
    let num_tags = r.read_count_of(1)?;
    let tags = read_index_block(r, num_tags)?;
    Ok((threshold, min_tags, tags))
}

/// Encodes a one-vs-all linear model (the PACE propagation payload body):
/// the shell, then one [`encode_linear_svm`] body per tag.
pub fn encode_linear_ova(
    model: &OneVsAllModel<LinearSvm>,
    precision: WeightPrecision,
    buf: &mut Vec<u8>,
) {
    put_ova_shell(model, buf);
    for (_, clf) in model.iter() {
        encode_linear_svm(clf, precision, buf);
    }
}

/// Decodes a one-vs-all linear model.
pub fn decode_linear_ova(r: &mut ByteReader<'_>) -> Result<OneVsAllModel<LinearSvm>, CodecError> {
    let (threshold, min_tags, tags) = read_ova_shell(r)?;
    let mut classifiers = BTreeMap::new();
    for tag in tags {
        classifiers.insert(tag, decode_linear_svm(r)?);
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
/// per tag          kernel, bias, n, label bitmap, alpha value block,
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
    precision: WeightPrecision,
    buf: &mut Vec<u8>,
) {
    put_ova_shell(model, buf);
    let mut ids = DistinctIds::new();
    let mut dictionary: Vec<&SparseVector> = Vec::new();
    let mut sv_ids: Vec<u32> = Vec::new();
    for (_, clf) in model.iter() {
        for sv in clf.support_vectors() {
            let (id, first) = ids.id((), &sv.vector);
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
        put_kernel_svm_head(clf, precision, buf);
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

// ---------------------------------------------------------------------------
// Propagation pruning
// ---------------------------------------------------------------------------

/// Keeps only the `k` largest-magnitude weights of every per-tag classifier
/// (ties broken toward lower feature ids, deterministically). Dimensions and
/// biases are preserved, so the pruned model scores through the same code
/// paths as the original.
pub fn prune_top_k(model: &OneVsAllModel<LinearSvm>, k: usize) -> OneVsAllModel<LinearSvm> {
    let classifiers: BTreeMap<TagId, LinearSvm> = model
        .iter()
        .map(|(tag, clf)| {
            let w = clf.weights();
            let mut nonzero: Vec<usize> = (0..w.len()).filter(|&i| w[i] != 0.0).collect();
            if nonzero.len() > k {
                nonzero.sort_by(|&a, &b| w[b].abs().total_cmp(&w[a].abs()).then(a.cmp(&b)));
                nonzero.truncate(k);
            }
            let mut pruned = vec![0.0; w.len()];
            for &i in &nonzero {
                pruned[i] = w[i];
            }
            (tag, LinearSvm::from_weights(pruned, clf.bias()))
        })
        .collect();
    OneVsAllModel::from_classifiers(classifiers, model.threshold(), model.min_tags())
}

/// Mean per-tag binary training accuracy of a one-vs-all model on a dataset —
/// the same quantity PACE uses as its ensemble vote weight. Returns 1.0 on an
/// empty dataset or tag-less model.
pub fn ensemble_accuracy(model: &OneVsAllModel<LinearSvm>, data: &MultiLabelDataset) -> f64 {
    if data.is_empty() || model.num_tags() == 0 {
        return 1.0;
    }
    let mut acc_sum = 0.0;
    for (tag, clf) in model.iter() {
        let correct = data
            .iter()
            .filter(|(x, tags)| (clf.decision(x) >= 0.0) == tags.contains(&tag))
            .count();
        acc_sum += correct as f64 / data.len() as f64;
    }
    acc_sum / model.num_tags() as f64
}

/// Accuracy-guarded propagation pruning: returns [`prune_top_k`]`(model, k)`
/// when the pruned model's [`ensemble_accuracy`] on `data` (the propagating
/// peer's own training set) stays within `max_accuracy_drop` of the full
/// model's; otherwise the full model is kept (pruning must never silently
/// cripple a peer's contribution).
pub fn prune_model_guarded(
    model: &OneVsAllModel<LinearSvm>,
    k: usize,
    data: &MultiLabelDataset,
    max_accuracy_drop: f64,
) -> OneVsAllModel<LinearSvm> {
    let pruned = prune_top_k(model, k);
    if data.is_empty() {
        return pruned;
    }
    let full_acc = ensemble_accuracy(model, data);
    let pruned_acc = ensemble_accuracy(&pruned, data);
    if full_acc - pruned_acc <= max_accuracy_drop {
        pruned
    } else {
        model.clone()
    }
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

    #[test]
    fn value_block_precisions() {
        let values = [1.5, -0.25, 0.75, -2.0];
        for precision in [
            WeightPrecision::F64,
            WeightPrecision::F32,
            WeightPrecision::Q8,
        ] {
            let mut buf = Vec::new();
            put_value_block(&values, precision, &mut buf);
            let decoded = read_value_block(&mut ByteReader::new(&buf), values.len()).unwrap();
            for (orig, dec) in values.iter().zip(&decoded) {
                let tol = match precision {
                    WeightPrecision::F64 => 0.0,
                    WeightPrecision::F32 => 1e-6,
                    WeightPrecision::Q8 => 2.0 / 127.0 * 2.0,
                };
                assert!((orig - dec).abs() <= tol, "{precision:?}: {orig} vs {dec}");
            }
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
    fn encode_kernel_ova_per_tag(
        model: &OneVsAllModel<KernelSvm>,
        precision: WeightPrecision,
        buf: &mut Vec<u8>,
    ) {
        put_ova_shell(model, buf);
        for (_, clf) in model.iter() {
            encode_kernel_svm(clf, precision, buf);
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
    /// vector (ids in first-appearance order by content).
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
        encode_kernel_ova_per_tag(model, WeightPrecision::F64, &mut oracle);
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
    }

    #[test]
    fn kernel_ova_frame_writes_each_distinct_vector_once() {
        let ds = toy_dataset();
        let model = OneVsAllTrainer::default().train_kernel(&ds, &KernelSvmTrainer::default());
        check_kernel_ova_frame(&model);
        let mut oracle = Vec::new();
        encode_kernel_ova_per_tag(&model, WeightPrecision::F64, &mut oracle);
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
        encode_kernel_ova_per_tag(&model, WeightPrecision::F64, &mut oracle);
        assert!(decode_kernel_ova(&mut ByteReader::new(&oracle)).is_err());
    }

    #[test]
    fn counts_the_payload_cannot_fill_are_rejected_before_reserving() {
        let too_many = Some(CodecError::Invalid("count exceeds payload size"));
        // A reservation of `usize::MAX / 16` values or indices would abort
        // the process, so reaching the assertions shows none was made.
        for tag in [VAL_F64, VAL_F32, VAL_Q8] {
            let block = [tag, 0, 0, 0, 0, 1, 2, 3];
            let got = read_value_block(&mut ByteReader::new(&block), usize::MAX / 16);
            assert_eq!(got.err(), too_many, "value tag {tag}");
        }
        let delta = [IDX_DELTA, 0, 0, 0];
        let got = read_index_block(&mut ByteReader::new(&delta), usize::MAX / 16);
        assert_eq!(got.err(), too_many);
        let bitmap = [IDX_BITMAP, 0, 8, 0xFF];
        assert!(read_index_block(&mut ByteReader::new(&bitmap), usize::MAX / 16).is_err());

        // A vector whose contiguous index block (two bytes for any count)
        // claims more nonzeros than there are bytes left for their values.
        let mut body = Vec::new();
        put_varint(&mut body, 64);
        body.extend_from_slice(&[IDX_CONTIGUOUS, 0, VAL_Q8]);
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

    #[test]
    fn quantized_linear_model_stays_close() {
        let (xs, ys) = crate::svm::test_util::separable(120, 5);
        let model = LinearSvmTrainer::default().train(&xs, &ys);
        for precision in [WeightPrecision::F32, WeightPrecision::Q8] {
            let mut buf = Vec::new();
            encode_linear_svm(&model, precision, &mut buf);
            let decoded = decode_linear_svm(&mut ByteReader::new(&buf)).unwrap();
            let agree = xs
                .iter()
                .filter(|x| model.predict(x) == decoded.predict(x))
                .count();
            assert!(
                agree as f64 / xs.len() as f64 > 0.95,
                "{precision:?}: {agree}/{}",
                xs.len()
            );
        }
    }

    #[test]
    fn pruning_keeps_top_weights_and_guard_rejects_harmful_cuts() {
        let ds = toy_dataset();
        let model = OneVsAllTrainer::default().train_linear(&ds, &LinearSvmTrainer::default());
        let pruned = prune_top_k(&model, 1);
        for (tag, clf) in pruned.iter() {
            assert!(clf.nonzero_weights() <= 1, "tag {tag}");
            assert_eq!(clf.bias(), model.classifier(tag).unwrap().bias());
        }
        // A generous budget keeps useful models; a zero-weight prune that
        // destroys accuracy is rejected by the guard.
        let harsh = prune_model_guarded(&model, 0, &ds, 0.01);
        let full_acc = ensemble_accuracy(&model, &ds);
        let harsh_acc = ensemble_accuracy(&harsh, &ds);
        assert!(full_acc - harsh_acc <= 0.01 + 1e-12);
    }

    fn arb_vector() -> impl Strategy<Value = SparseVector> {
        prop::collection::vec((0u32..5_000, -3.0f64..3.0), 0..40).prop_map(SparseVector::from_pairs)
    }

    fn arb_example() -> impl Strategy<Value = MultiLabelExample> {
        (arb_vector(), prop::collection::btree_set(0u32..200, 0..6))
            .prop_map(|(v, tags)| MultiLabelExample::new(v, tags))
    }

    fn arb_linear_svm() -> impl Strategy<Value = LinearSvm> {
        (prop::collection::vec(-4.0f64..4.0, 0..60), -2.0f64..2.0)
            .prop_map(|(weights, bias)| LinearSvm::from_weights(weights, bias))
    }

    fn arb_kernel_svm() -> impl Strategy<Value = KernelSvm> {
        (
            prop::collection::vec((arb_vector(), any::<bool>(), 0.01f64..3.0), 0..12),
            -2.0f64..2.0,
            0.1f64..2.0,
            0u8..2,
        )
            .prop_map(|(svs, bias, gamma, which)| {
                let kernel = if which == 0 {
                    Kernel::Linear
                } else {
                    Kernel::Rbf { gamma }
                };
                let svs = svs
                    .into_iter()
                    .map(|(vector, label, alpha)| SupportVector {
                        vector,
                        label,
                        alpha,
                    })
                    .collect();
                KernelSvm::from_support_vectors(svs, bias, kernel)
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
                    0usize..3,
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
            let copy = |v: &SparseVector| SparseVector::from_sorted_pairs(v.iter());
            let build = |deep: bool| {
                let classifiers = tags
                    .iter()
                    .enumerate()
                    .map(|(t, (kernel, bias, svs))| {
                        let svs = svs
                            .iter()
                            .map(|&(pick, shared, label, alpha)| {
                                let v = &pool[pick % pool.len()];
                                SupportVector {
                                    vector: if shared && !deep { v.clone() } else { copy(v) },
                                    label,
                                    alpha,
                                }
                            })
                            .collect();
                        let kernel = crate::kernel::wild::KERNELS[*kernel];
                        (3 * t as TagId, KernelSvm::from_support_vectors(svs, *bias, kernel))
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
