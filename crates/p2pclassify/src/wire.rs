//! Protocol frame layer: every payload the four protocols put on the
//! simulated network travels as a real byte frame built on [`ml::codec`].
//!
//! A frame is `magic (0xD7) | version (3) | payload kind | payload body`.
//! Version 2 began carrying kernel models as a dictionary of distinct
//! support vectors plus per-tag ids ([`ml::codec::encode_kernel_ova`]);
//! version 3 writes a linear model's shared support once
//! ([`ml::codec::encode_linear_ova`]). A frame of any other version is
//! rejected, not misread.
//! The body encodings live in [`ml::codec`]; this module adds the framing
//! and strict decode validation (magic/version/kind checks, no trailing
//! bytes).
//!
//! Every protocol send is a frame: the sender encodes its payload,
//! `net.send_frame(..)` charges the encoded byte length, and the receiving
//! side **decodes its copy from the frame**. Round-tripping every
//! propagation is what makes the E3 communication tables measurements rather
//! than estimates. Model weights travel at [`WeightPrecision::F64`], the
//! codec's one lossless encoding, so a decoded artifact is bit-identical to
//! the encoded one and decoding on receipt changes no prediction. Every
//! value a model, vector or centroid decoder reads is finite
//! ([`ml::codec`] rejects the rest).

use ml::codec::{self, ByteReader, CodecError, WeightPrecision};
use ml::multilabel::TagPrediction;
use ml::svm::{KernelSvm, LinearSvm};
use ml::{MultiLabelDataset, MultiLabelExample, OneVsAllModel};
use textproc::SparseVector;

/// First byte of every frame.
pub const MAGIC: u8 = 0xD7;
/// Wire format version: 3 since linear one-vs-all bodies write the union of
/// their tags' supports once (2 when kernel bodies began writing each
/// distinct support vector once).
pub const VERSION: u8 = 3;

/// Discriminates the payload carried by a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum PayloadKind {
    /// A PACE linear one-vs-all model plus its training accuracy.
    LinearModel = 1,
    /// PACE k-means centroids.
    Centroids = 2,
    /// A CEMPaR kernel one-vs-all model (support vectors).
    KernelModel = 3,
    /// Raw training examples (the Centralized baseline's upload).
    TrainingData = 4,
    /// A single corrected example (refinement).
    Refinement = 5,
    /// An untagged document vector sent for prediction.
    Query = 6,
    /// A scored tag list sent back to a requester.
    Scores = 7,
    /// A sequence-numbered, checksummed wrapper around another frame
    /// (reliability layer).
    Reliable = 8,
    /// An acknowledgement of a [`PayloadKind::Reliable`] frame.
    Ack = 9,
    /// An anti-entropy digest: the `(source, version)` pairs a peer holds.
    Digest = 10,
    /// A versioned install envelope: `(source, version)` plus the inner
    /// frames that together replace source's model (sans-io cores).
    Install = 11,
    /// A correlated prediction query: request id plus the document vector.
    QueryRequest = 12,
    /// A correlated prediction response: request id, vote weight, scores.
    QueryResponse = 13,
}

impl PayloadKind {
    fn from_byte(b: u8) -> Option<Self> {
        Some(match b {
            1 => PayloadKind::LinearModel,
            2 => PayloadKind::Centroids,
            3 => PayloadKind::KernelModel,
            4 => PayloadKind::TrainingData,
            5 => PayloadKind::Refinement,
            6 => PayloadKind::Query,
            7 => PayloadKind::Scores,
            8 => PayloadKind::Reliable,
            9 => PayloadKind::Ack,
            10 => PayloadKind::Digest,
            11 => PayloadKind::Install,
            12 => PayloadKind::QueryRequest,
            13 => PayloadKind::QueryResponse,
            _ => return None,
        })
    }
}

/// Why a frame could not be decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The payload body was malformed.
    Codec(CodecError),
    /// The first byte was not [`MAGIC`].
    BadMagic(u8),
    /// Unknown wire format version.
    BadVersion(u8),
    /// Unknown payload kind byte.
    BadKind(u8),
    /// The frame carried a different payload kind than the decoder expected.
    WrongKind {
        /// What the decoder was asked to read.
        expected: PayloadKind,
        /// What the frame actually carried.
        got: PayloadKind,
    },
    /// Bytes were left over after the payload was fully decoded.
    TrailingBytes,
    /// A reliable frame's body failed its FNV-1a checksum (bit corruption).
    ChecksumMismatch,
}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        WireError::Codec(e)
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Codec(e) => write!(f, "payload error: {e}"),
            WireError::BadMagic(b) => write!(f, "bad frame magic 0x{b:02X}"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadKind(k) => write!(f, "unknown payload kind {k}"),
            WireError::WrongKind { expected, got } => {
                write!(f, "expected {expected:?} frame, got {got:?}")
            }
            WireError::TrailingBytes => f.write_str("trailing bytes after payload"),
            WireError::ChecksumMismatch => f.write_str("reliable frame checksum mismatch"),
        }
    }
}

impl std::error::Error for WireError {}

/// Retry policy of the reliable-delivery layer.
///
/// Retransmits are charged in **measured wire bytes**: every attempt re-sends
/// the full wrapped frame and every ack is a real (lossy) reverse message, so
/// the E3 communication tables reflect the true cost of reliability under
/// loss. Backoff is accounted as virtual latency, never wall-clock sleeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReliabilityConfig {
    /// Total send attempts (first try + retransmits) before giving up.
    pub max_attempts: u32,
    /// Base retransmit timeout; attempt `n` backs off to `base * 2^n`.
    pub backoff_base_ms: u64,
}

impl Default for ReliabilityConfig {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            backoff_base_ms: 250,
        }
    }
}

fn frame(kind: PayloadKind) -> Vec<u8> {
    vec![MAGIC, VERSION, kind as u8]
}

/// The payload kind of a frame, without decoding the body — how a sans-io
/// core routes an incoming frame to the right decoder. `None` when the
/// envelope is malformed (short, bad magic/version, unknown kind).
pub fn peek_kind(bytes: &[u8]) -> Option<PayloadKind> {
    match bytes {
        [MAGIC, VERSION, kind, ..] => PayloadKind::from_byte(*kind),
        _ => None,
    }
}

fn open(bytes: &[u8], expected: PayloadKind) -> Result<ByteReader<'_>, WireError> {
    let mut r = ByteReader::new(bytes);
    let magic = r.read_byte().map_err(WireError::from)?;
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = r.read_byte().map_err(WireError::from)?;
    if version != VERSION {
        return Err(WireError::BadVersion(version));
    }
    let kind_byte = r.read_byte().map_err(WireError::from)?;
    let got = PayloadKind::from_byte(kind_byte).ok_or(WireError::BadKind(kind_byte))?;
    if got != expected {
        return Err(WireError::WrongKind { expected, got });
    }
    Ok(r)
}

fn finish<T>(r: ByteReader<'_>, value: T) -> Result<T, WireError> {
    if r.remaining() != 0 {
        return Err(WireError::TrailingBytes);
    }
    Ok(value)
}

/// Encodes a PACE propagation frame: the peer's linear one-vs-all model plus
/// its training accuracy (the ensemble vote weight), which lies in `[0, 1]`.
pub fn encode_pace_model(
    model: &OneVsAllModel<LinearSvm>,
    accuracy: f64,
    precision: WeightPrecision,
) -> Vec<u8> {
    debug_assert!(accuracy_is_valid(accuracy), "accuracy {accuracy}");
    let mut buf = frame(PayloadKind::LinearModel);
    codec::put_f64(&mut buf, accuracy);
    codec::encode_linear_ova(model, precision, &mut buf);
    buf
}

/// Decodes a PACE propagation frame back to `(model, accuracy)`. An accuracy
/// outside `[0, 1]` (NaN included) is [`CodecError::Invalid`]: it would be
/// the frame's vote weight.
pub fn decode_pace_model(bytes: &[u8]) -> Result<(OneVsAllModel<LinearSvm>, f64), WireError> {
    let mut r = open(bytes, PayloadKind::LinearModel)?;
    let accuracy = r.read_f64()?;
    if !accuracy_is_valid(accuracy) {
        return Err(CodecError::Invalid("PACE accuracy outside [0, 1]").into());
    }
    let model = codec::decode_linear_ova(&mut r)?;
    finish(r, (model, accuracy))
}

fn accuracy_is_valid(accuracy: f64) -> bool {
    (0.0..=1.0).contains(&accuracy)
}

/// Encodes a PACE centroid frame; every centroid value is finite.
pub fn encode_centroids(centroids: &[SparseVector]) -> Vec<u8> {
    let mut buf = frame(PayloadKind::Centroids);
    codec::encode_vectors(centroids, &mut buf);
    buf
}

/// Decodes a PACE centroid frame. A non-finite value is
/// [`CodecError::Invalid`], as in every codec value block: the retrieval
/// distance would price a NaN centroid at 0, nearest to every query.
pub fn decode_centroids(bytes: &[u8]) -> Result<Vec<SparseVector>, WireError> {
    let mut r = open(bytes, PayloadKind::Centroids)?;
    let centroids = codec::decode_vectors(&mut r)?;
    finish(r, centroids)
}

/// Encodes a CEMPaR propagation frame: a kernel one-vs-all model.
pub fn encode_kernel_model(
    model: &OneVsAllModel<KernelSvm>,
    precision: WeightPrecision,
) -> Vec<u8> {
    let mut buf = frame(PayloadKind::KernelModel);
    codec::encode_kernel_ova(model, precision, &mut buf);
    buf
}

/// Decodes a CEMPaR propagation frame.
pub fn decode_kernel_model(bytes: &[u8]) -> Result<OneVsAllModel<KernelSvm>, WireError> {
    let mut r = open(bytes, PayloadKind::KernelModel)?;
    let model = codec::decode_kernel_ova(&mut r)?;
    finish(r, model)
}

/// Encodes a training-data upload frame (the Centralized baseline).
pub fn encode_dataset(ds: &MultiLabelDataset) -> Vec<u8> {
    let mut buf = frame(PayloadKind::TrainingData);
    codec::encode_dataset(ds, &mut buf);
    buf
}

/// Decodes a training-data upload frame.
pub fn decode_dataset(bytes: &[u8]) -> Result<MultiLabelDataset, WireError> {
    let mut r = open(bytes, PayloadKind::TrainingData)?;
    let ds = codec::decode_dataset(&mut r)?;
    finish(r, ds)
}

/// Encodes a single-example refinement frame.
pub fn encode_example(ex: &MultiLabelExample) -> Vec<u8> {
    let mut buf = frame(PayloadKind::Refinement);
    codec::encode_example(ex, &mut buf);
    buf
}

/// Decodes a single-example refinement frame.
pub fn decode_example(bytes: &[u8]) -> Result<MultiLabelExample, WireError> {
    let mut r = open(bytes, PayloadKind::Refinement)?;
    let ex = codec::decode_example(&mut r)?;
    finish(r, ex)
}

/// Encodes a prediction-query frame (the untagged document vector).
pub fn encode_query(x: &SparseVector) -> Vec<u8> {
    let mut buf = frame(PayloadKind::Query);
    codec::encode_vector(x, &mut buf);
    buf
}

/// Decodes a prediction-query frame.
pub fn decode_query(bytes: &[u8]) -> Result<SparseVector, WireError> {
    let mut r = open(bytes, PayloadKind::Query)?;
    let x = codec::decode_vector(&mut r)?;
    finish(r, x)
}

/// Encodes a prediction-response frame (a scored tag list).
pub fn encode_scores(scores: &[TagPrediction]) -> Vec<u8> {
    let mut buf = frame(PayloadKind::Scores);
    codec::encode_predictions(scores, &mut buf);
    buf
}

/// Decodes a prediction-response frame.
pub fn decode_scores(bytes: &[u8]) -> Result<Vec<TagPrediction>, WireError> {
    let mut r = open(bytes, PayloadKind::Scores)?;
    let scores = codec::decode_predictions(&mut r)?;
    finish(r, scores)
}

/// FNV-1a 64-bit hash — the reliable wrapper's corruption check. Strict
/// decoding alone cannot catch bit flips inside float bodies (most 8-byte
/// patterns are valid `f64`s), so the wrapper carries an explicit checksum.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_update(0xcbf2_9ce4_8422_2325, bytes)
}

fn fnv1a64_update(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The checksum covers the sequence number too: a frame whose seq was
/// corrupted in flight must be dropped, not acked under the wrong number.
fn reliable_checksum(seq: u64, inner: &[u8]) -> u64 {
    fnv1a64_update(fnv1a64(&seq.to_le_bytes()), inner)
}

/// Wraps an inner frame in a sequence-numbered, checksummed reliable frame.
pub fn encode_reliable(seq: u64, inner: &[u8]) -> Vec<u8> {
    let mut buf = frame(PayloadKind::Reliable);
    codec::put_varint(&mut buf, seq);
    buf.extend_from_slice(&reliable_checksum(seq, inner).to_le_bytes());
    codec::put_varint(&mut buf, inner.len() as u64);
    buf.extend_from_slice(inner);
    buf
}

/// Unwraps a reliable frame to `(seq, inner frame bytes)`, the inner frame
/// borrowed from `bytes`.
///
/// Fails with [`WireError::ChecksumMismatch`] when the body does not hash to
/// the carried checksum — the receiver must treat the frame as never
/// delivered (drop, no ack) rather than decode garbage.
pub fn decode_reliable(bytes: &[u8]) -> Result<(u64, &[u8]), WireError> {
    let mut r = open(bytes, PayloadKind::Reliable)?;
    let seq = r.read_varint()?;
    let checksum = u64::from_le_bytes(
        r.read_bytes(8)
            .map_err(WireError::from)?
            .try_into()
            .expect("read_bytes(8) returns 8 bytes"),
    );
    let len = r.read_varint()? as usize;
    if len != r.remaining() {
        // Also rejects absurd length prefixes: len can never exceed the
        // remaining physical bytes, so no allocation is sized by the prefix
        // beyond what was actually received.
        return Err(WireError::Codec(CodecError::Invalid(
            "reliable body length mismatch",
        )));
    }
    let inner = r.read_bytes(len).map_err(WireError::from)?;
    if reliable_checksum(seq, inner) != checksum {
        return Err(WireError::ChecksumMismatch);
    }
    finish(r, (seq, inner))
}

/// Encodes an acknowledgement of reliable frame `seq`.
pub fn encode_ack(seq: u64) -> Vec<u8> {
    let mut buf = frame(PayloadKind::Ack);
    codec::put_varint(&mut buf, seq);
    buf
}

/// Decodes an acknowledgement frame to its sequence number.
pub fn decode_ack(bytes: &[u8]) -> Result<u64, WireError> {
    let mut r = open(bytes, PayloadKind::Ack)?;
    let seq = r.read_varint()?;
    finish(r, seq)
}

/// Encodes an anti-entropy digest: the `(source, version)` pairs of the
/// models a peer currently holds. Exchanged after a crash restart or
/// partition heal so only stale entries are re-shipped.
pub fn encode_digest(entries: &[(u64, u64)]) -> Vec<u8> {
    let mut buf = frame(PayloadKind::Digest);
    codec::put_varint(&mut buf, entries.len() as u64);
    for &(source, version) in entries {
        codec::put_varint(&mut buf, source);
        codec::put_varint(&mut buf, version);
    }
    buf
}

/// Decodes an anti-entropy digest frame.
pub fn decode_digest(bytes: &[u8]) -> Result<Vec<(u64, u64)>, WireError> {
    let mut r = open(bytes, PayloadKind::Digest)?;
    let n = r.read_varint()? as usize;
    // Each entry is at least two 1-byte varints: a count that couldn't fit in
    // the remaining bytes is corrupt, and must not size an allocation.
    if n > r.remaining() / 2 + 1 {
        return Err(WireError::Codec(CodecError::Invalid(
            "digest count exceeds frame",
        )));
    }
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let source = r.read_varint()?;
        let version = r.read_varint()?;
        entries.push((source, version));
    }
    finish(r, entries)
}

/// Encodes a versioned install envelope: the `(source, version)` identity of
/// a model replica plus the inner frames (already framed) that together
/// replace it. PACE ships `[LinearModel, Centroids]` (one envelope per
/// update under either driver), CEMPaR `[KernelModel]`,
/// the Centralized baseline `[TrainingData]`. Carrying the version on the
/// envelope lets sans-io cores install idempotently and version-monotonically
/// no matter how the driver reorders or duplicates deliveries.
pub fn encode_install(source: u64, version: u64, parts: &[&[u8]]) -> Vec<u8> {
    let mut buf = frame(PayloadKind::Install);
    codec::put_varint(&mut buf, source);
    codec::put_varint(&mut buf, version);
    codec::put_varint(&mut buf, parts.len() as u64);
    for part in parts {
        codec::put_varint(&mut buf, part.len() as u64);
        buf.extend_from_slice(part);
    }
    buf
}

/// Decodes an install envelope to `(source, version, inner frames)`. The
/// inner frames are borrowed from `bytes`: nothing is copied.
pub fn decode_install(bytes: &[u8]) -> Result<(u64, u64, Vec<&[u8]>), WireError> {
    let mut r = open(bytes, PayloadKind::Install)?;
    let source = r.read_varint()?;
    let version = r.read_varint()?;
    let n = r.read_varint()? as usize;
    // Each part costs at least a 1-byte length prefix; a count the remaining
    // bytes cannot hold is corrupt and must not size an allocation.
    if n > r.remaining() + 1 {
        return Err(WireError::Codec(CodecError::Invalid(
            "install part count exceeds frame",
        )));
    }
    let mut parts = Vec::with_capacity(n);
    for _ in 0..n {
        let len = r.read_varint()? as usize;
        if len > r.remaining() {
            return Err(WireError::Codec(CodecError::Invalid(
                "install part length exceeds frame",
            )));
        }
        parts.push(r.read_bytes(len).map_err(WireError::from)?);
    }
    finish(r, (source, version, parts))
}

/// Encodes a correlated prediction query: a request id (scoped to the asking
/// peer) plus the document vector. The id lets a sans-io requester match the
/// response to the outstanding query without relying on delivery order.
pub fn encode_query_request(request: u64, x: &SparseVector) -> Vec<u8> {
    let mut buf = frame(PayloadKind::QueryRequest);
    codec::put_varint(&mut buf, request);
    codec::encode_vector(x, &mut buf);
    buf
}

/// Decodes a correlated prediction query to `(request id, vector)`.
pub fn decode_query_request(bytes: &[u8]) -> Result<(u64, SparseVector), WireError> {
    let mut r = open(bytes, PayloadKind::QueryRequest)?;
    let request = r.read_varint()?;
    let x = codec::decode_vector(&mut r)?;
    finish(r, (request, x))
}

/// Encodes a correlated prediction response: the echoed request id, the
/// responder's vote weight (e.g. contributing models behind a CEMPaR region),
/// and the scored tag list.
pub fn encode_query_response(request: u64, weight: u64, scores: &[TagPrediction]) -> Vec<u8> {
    let mut buf = frame(PayloadKind::QueryResponse);
    codec::put_varint(&mut buf, request);
    codec::put_varint(&mut buf, weight);
    codec::encode_predictions(scores, &mut buf);
    buf
}

/// Decodes a correlated prediction response to `(request id, weight, scores)`.
pub fn decode_query_response(bytes: &[u8]) -> Result<(u64, u64, Vec<TagPrediction>), WireError> {
    let mut r = open(bytes, PayloadKind::QueryResponse)?;
    let request = r.read_varint()?;
    let weight = r.read_varint()?;
    let scores = codec::decode_predictions(&mut r)?;
    finish(r, (request, weight, scores))
}

/// `bytes` with the first occurrence of `from`'s little-endian encoding
/// replaced by `to`'s: how a test forges a value the encoders refuse.
#[cfg(test)]
pub(crate) fn forge_f64(bytes: &[u8], from: f64, to: f64) -> Vec<u8> {
    let (from, to) = (from.to_le_bytes(), to.to_le_bytes());
    let at = bytes
        .windows(8)
        .position(|w| w == from)
        .expect("value is on the wire");
    let mut forged = bytes.to_vec();
    forged[at..at + 8].copy_from_slice(&to);
    forged
}

#[cfg(test)]
mod tests {
    use super::*;
    use ml::multilabel::OneVsAllTrainer;
    use ml::svm::{KernelSvmTrainer, LinearSvmTrainer};
    use ml::MultiLabelExample;

    fn toy_dataset() -> MultiLabelDataset {
        let mut ds = MultiLabelDataset::new();
        for i in 0..20 {
            let s = 1.0 + (i % 3) as f64 * 0.1;
            ds.push(MultiLabelExample::new(
                SparseVector::from_pairs([(0, s)]),
                [1],
            ));
            ds.push(MultiLabelExample::new(
                SparseVector::from_pairs([(1, s), (4, 0.2)]),
                [2],
            ));
        }
        ds
    }

    #[test]
    fn pace_model_frame_roundtrips() {
        let ds = toy_dataset();
        let model = OneVsAllTrainer::default().train_linear_csr(&ds, &LinearSvmTrainer::default());
        let bytes = encode_pace_model(&model, 0.9375, WeightPrecision::F64);
        assert_eq!(bytes[0], MAGIC);
        assert_eq!(bytes[1], VERSION);
        let (decoded, accuracy) = decode_pace_model(&bytes).unwrap();
        assert_eq!(accuracy, 0.9375);
        for (x, _) in ds.iter() {
            assert_eq!(model.scores(x), decoded.scores(x));
        }
    }

    #[test]
    fn pace_frames_carry_finite_values_and_an_accuracy_in_the_unit_interval() {
        let ds = toy_dataset();
        let model = OneVsAllTrainer::default().train_linear_csr(&ds, &LinearSvmTrainer::default());
        fn invalid<T>(what: &'static str) -> Result<T, WireError> {
            Err(WireError::Codec(CodecError::Invalid(what)))
        }
        for accuracy in [0.0, 1.0] {
            let frame = encode_pace_model(&model, accuracy, WeightPrecision::F64);
            assert_eq!(decode_pace_model(&frame).unwrap().1, accuracy);
        }
        let good = encode_pace_model(&model, 0.9375, WeightPrecision::F64);
        for accuracy in [f64::NAN, f64::INFINITY, -0.25, 1.5, 1e9] {
            let forged = forge_f64(&good, 0.9375, accuracy);
            let got = decode_pace_model(&forged).map(|(_, a)| a);
            assert_eq!(got, invalid("PACE accuracy outside [0, 1]"), "{accuracy}");
        }

        let good = encode_centroids(&[
            SparseVector::from_pairs([(0, 1.0), (3, 0.625)]),
            SparseVector::from_pairs([(1, 0.9)]),
        ]);
        for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let forged = forge_f64(&good, 0.625, value);
            assert_eq!(
                decode_centroids(&forged),
                invalid("non-finite value"),
                "{value}"
            );
        }
    }

    #[test]
    fn kernel_model_frame_roundtrips() {
        let ds = toy_dataset();
        let model =
            OneVsAllTrainer::default().train_kernel_shared(&ds, &KernelSvmTrainer::default());
        let bytes = encode_kernel_model(&model, WeightPrecision::F64);
        let decoded = decode_kernel_model(&bytes).unwrap();
        for (x, _) in ds.iter() {
            assert_eq!(model.scores(x), decoded.scores(x));
        }
    }

    #[test]
    fn kernel_frames_of_version_one_are_rejected() {
        // Version 1 wrote every support vector once per tag; its frames must
        // fail the version check, not be read as a dictionary.
        let ds = toy_dataset();
        let model =
            OneVsAllTrainer::default().train_kernel_shared(&ds, &KernelSvmTrainer::default());
        let mut bytes = encode_kernel_model(&model, WeightPrecision::F64);
        assert_eq!(bytes[1], 3);
        bytes[1] = 1;
        assert_eq!(
            decode_kernel_model(&bytes).err(),
            Some(WireError::BadVersion(1))
        );
        assert_eq!(peek_kind(&bytes), None);
    }

    #[test]
    fn linear_and_install_frames_of_version_two_are_rejected() {
        // Version 2 wrote each tag's index block; its linear frames, and
        // the install envelopes carrying them, must fail the version check.
        let ds = toy_dataset();
        let model = OneVsAllTrainer::default().train_linear_csr(&ds, &LinearSvmTrainer::default());
        let mut linear = encode_pace_model(&model, 0.5, WeightPrecision::F64);
        let centroids = encode_centroids(&[SparseVector::from_pairs([(0, 1.0)])]);
        let mut install = encode_install(4, 1, &[&linear, &centroids]);
        assert_eq!((linear[1], install[1]), (3, 3));
        linear[1] = 2;
        install[1] = 2;
        assert_eq!(
            decode_pace_model(&linear).err(),
            Some(WireError::BadVersion(2))
        );
        assert_eq!(
            decode_install(&install).err(),
            Some(WireError::BadVersion(2))
        );
        assert_eq!((peek_kind(&linear), peek_kind(&install)), (None, None));
        // An envelope of this version around a version-2 model frame opens,
        // but its part does not.
        let wrapped = encode_install(4, 1, &[&linear, &centroids]);
        let (_, _, parts) = decode_install(&wrapped).unwrap();
        assert_eq!(
            decode_pace_model(parts[0]).err(),
            Some(WireError::BadVersion(2))
        );
    }

    #[test]
    fn data_query_and_score_frames_roundtrip() {
        let ds = toy_dataset();
        assert_eq!(decode_dataset(&encode_dataset(&ds)).unwrap(), ds);
        let ex = MultiLabelExample::new(SparseVector::from_pairs([(3, 0.5)]), [7]);
        assert_eq!(decode_example(&encode_example(&ex)).unwrap(), ex);
        let q = SparseVector::from_pairs([(2, 1.0), (9, -0.5)]);
        assert_eq!(decode_query(&encode_query(&q)).unwrap(), q);
        let logistic = |s: f64| 1.0 / (1.0 + (-s).exp());
        let scores = vec![
            TagPrediction {
                tag: 4,
                score: 0.7,
                confidence: logistic(0.7),
            },
            TagPrediction {
                tag: 1,
                score: -0.2,
                confidence: logistic(-0.2),
            },
        ];
        assert_eq!(decode_scores(&encode_scores(&scores)).unwrap(), scores);
    }

    #[test]
    fn frame_validation_rejects_bad_envelopes() {
        let q = SparseVector::from_pairs([(0, 1.0)]);
        let good = encode_query(&q);
        let mut bad_magic = good.clone();
        bad_magic[0] = 0x00;
        assert_eq!(decode_query(&bad_magic), Err(WireError::BadMagic(0)));
        let mut bad_version = good.clone();
        bad_version[1] = 9;
        assert_eq!(decode_query(&bad_version), Err(WireError::BadVersion(9)));
        let mut bad_kind = good.clone();
        bad_kind[2] = 200;
        assert_eq!(decode_query(&bad_kind), Err(WireError::BadKind(200)));
        // A query frame is not a centroid frame.
        assert_eq!(
            decode_centroids(&good),
            Err(WireError::WrongKind {
                expected: PayloadKind::Centroids,
                got: PayloadKind::Query,
            })
        );
        // Trailing garbage is rejected.
        let mut trailing = good.clone();
        trailing.push(0);
        assert_eq!(decode_query(&trailing), Err(WireError::TrailingBytes));
        // Truncation is rejected.
        assert!(decode_query(&good[..good.len() - 1]).is_err());
    }

    #[test]
    fn reliable_wrapper_roundtrips_and_catches_corruption() {
        let q = SparseVector::from_pairs([(3, 0.25), (8, -1.5)]);
        let inner = encode_query(&q);
        let wrapped = encode_reliable(42, &inner);
        let (seq, body) = decode_reliable(&wrapped).unwrap();
        assert_eq!(seq, 42);
        assert_eq!(body, inner);
        assert_eq!(decode_query(body).unwrap(), q);
        // The body is the wrapper's own tail, not a copy.
        assert!(std::ptr::eq(&wrapped[wrapped.len() - body.len()..], body));

        // Flip one bit anywhere in the body: the checksum must catch it even
        // when the flipped byte still decodes structurally (float payloads).
        for byte in 0..wrapped.len() {
            for bit in 0..8 {
                let mut corrupt = wrapped.clone();
                corrupt[byte] ^= 1 << bit;
                assert!(decode_reliable(&corrupt).is_err(), "byte {byte} bit {bit}");
            }
        }
    }

    #[test]
    fn ack_and_digest_frames_roundtrip() {
        assert_eq!(decode_ack(&encode_ack(0)).unwrap(), 0);
        assert_eq!(decode_ack(&encode_ack(u64::MAX)).unwrap(), u64::MAX);
        let entries = vec![(0, 3), (17, 1), (u64::MAX, 0)];
        assert_eq!(decode_digest(&encode_digest(&entries)).unwrap(), entries);
        assert_eq!(decode_digest(&encode_digest(&[])).unwrap(), Vec::new());
    }

    #[test]
    fn digest_count_cannot_size_an_absurd_allocation() {
        let mut buf = vec![MAGIC, VERSION, PayloadKind::Digest as u8];
        codec::put_varint(&mut buf, u64::MAX); // claims ~1.8e19 entries
        assert!(decode_digest(&buf).is_err());
    }

    #[test]
    fn install_envelope_roundtrips_nested_frames() {
        let q = SparseVector::from_pairs([(1, 0.5)]);
        let part_a = encode_query(&q);
        let part_b = encode_ack(9);
        let bytes = encode_install(7, 3, &[&part_a, &part_b]);
        let (source, version, parts) = decode_install(&bytes).unwrap();
        assert_eq!(source, 7);
        assert_eq!(version, 3);
        assert_eq!(parts, vec![&part_a[..], &part_b[..]]);
        // The parts are views into the envelope, not copies.
        let envelope = bytes.as_ptr_range();
        assert!(parts
            .iter()
            .all(|p| envelope.contains(&p.as_ptr()) && p.as_ptr_range().end <= envelope.end));
        // Inner frames survive verbatim (full envelope validation included).
        assert_eq!(decode_query(parts[0]).unwrap(), q);
        // Empty envelopes are legal (tombstone installs).
        assert!(decode_install(&encode_install(0, 1, &[]))
            .unwrap()
            .2
            .is_empty());
    }

    #[test]
    fn install_counts_cannot_size_absurd_allocations() {
        let mut buf = vec![MAGIC, VERSION, PayloadKind::Install as u8];
        codec::put_varint(&mut buf, 1); // source
        codec::put_varint(&mut buf, 1); // version
        codec::put_varint(&mut buf, u64::MAX); // claims ~1.8e19 parts
        assert!(decode_install(&buf).is_err());
        let mut buf = vec![MAGIC, VERSION, PayloadKind::Install as u8];
        codec::put_varint(&mut buf, 1);
        codec::put_varint(&mut buf, 1);
        codec::put_varint(&mut buf, 1); // one part…
        codec::put_varint(&mut buf, u64::MAX); // …claiming ~1.8e19 bytes
        assert!(decode_install(&buf).is_err());
    }

    #[test]
    fn correlated_query_frames_roundtrip() {
        let q = SparseVector::from_pairs([(2, 1.0), (5, -0.25)]);
        let bytes = encode_query_request(11, &q);
        assert_eq!(decode_query_request(&bytes).unwrap(), (11, q));
        let scores = vec![TagPrediction {
            tag: 3,
            score: 0.4,
            confidence: 1.0 / (1.0 + (-0.4f64).exp()),
        }];
        let bytes = encode_query_response(11, 5, &scores);
        assert_eq!(decode_query_response(&bytes).unwrap(), (11, 5, scores));
        // Weight 0 responses (empty region) are legal and roundtrip.
        let bytes = encode_query_response(2, 0, &[]);
        assert_eq!(decode_query_response(&bytes).unwrap(), (2, 0, vec![]));
    }
}
