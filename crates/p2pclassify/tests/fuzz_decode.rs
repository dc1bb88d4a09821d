//! Adversarial decode fuzzing for the wire layer (satellite of the fault
//! tolerance PR): every `p2pclassify::wire` and `ml::codec` decoder must
//! treat attacker- or corruption-shaped bytes as data, never as a crash.
//!
//! Three properties, each over every decoder:
//!
//! 1. **Arbitrary bytes** — decoding any byte soup returns `Ok` or `Err`,
//!    never panics.
//! 2. **Bit-flipped valid frames** — a single flipped bit in a genuinely
//!    encoded frame (exactly what [`CorruptionFaults`] injects in the
//!    simulator) must decode cleanly or fail cleanly.
//! 3. **Absurd length/count prefixes** — a corrupt varint claiming millions
//!    of entries must be rejected *before* it sizes an allocation; decoding
//!    stays cheap no matter what the prefix says.
//!
//! [`CorruptionFaults`]: p2psim::faults::CorruptionFaults

use std::sync::OnceLock;

use ml::codec::{self, ByteReader, WeightPrecision};
use ml::multilabel::{OneVsAllTrainer, TagPrediction};
use ml::svm::{KernelSvmTrainer, LinearSvmTrainer};
use ml::{MultiLabelDataset, MultiLabelExample};
use p2pclassify::wire;
use proptest::prelude::*;
use textproc::SparseVector;

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

/// One genuinely encoded frame per wire encoder, built once (training the
/// models dominates the cost) and shared across all proptest cases.
fn valid_frames() -> &'static Vec<(&'static str, Vec<u8>)> {
    static FRAMES: OnceLock<Vec<(&'static str, Vec<u8>)>> = OnceLock::new();
    FRAMES.get_or_init(|| {
        let ds = toy_dataset();
        let linear = OneVsAllTrainer::default().train_linear(&ds, &LinearSvmTrainer::default());
        let kernel = OneVsAllTrainer::default().train_kernel(&ds, &KernelSvmTrainer::default());
        let centroids = vec![
            SparseVector::from_pairs([(0, 1.0), (3, 0.5)]),
            SparseVector::from_pairs([(1, 0.9)]),
        ];
        let ex = MultiLabelExample::new(SparseVector::from_pairs([(3, 0.5), (7, -1.0)]), [7, 2]);
        let query = SparseVector::from_pairs([(2, 1.0), (9, -0.5)]);
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
        let inner = wire::encode_query(&query);
        vec![
            (
                "pace_model",
                wire::encode_pace_model(&linear, 0.9375, WeightPrecision::F64),
            ),
            ("centroids", wire::encode_centroids(&centroids)),
            (
                "kernel_model",
                wire::encode_kernel_model(&kernel, WeightPrecision::F64),
            ),
            ("dataset", wire::encode_dataset(&ds)),
            ("example", wire::encode_example(&ex)),
            ("query", wire::encode_query(&query)),
            ("scores", wire::encode_scores(&scores)),
            ("reliable", wire::encode_reliable(41, &inner)),
            ("ack", wire::encode_ack(7)),
            ("digest", wire::encode_digest(&[(0, 3), (5, 1), (9, 12)])),
        ]
    })
}

/// Runs every `p2pclassify::wire` decoder over the bytes. The return value
/// is the number that decoded successfully — the property tests only require
/// that this returns at all (no panic, no abort on allocation).
fn run_wire_decoders(bytes: &[u8]) -> usize {
    let mut ok = 0;
    ok += wire::decode_pace_model(bytes).is_ok() as usize;
    ok += wire::decode_centroids(bytes).is_ok() as usize;
    ok += wire::decode_kernel_model(bytes).is_ok() as usize;
    ok += wire::decode_dataset(bytes).is_ok() as usize;
    ok += wire::decode_example(bytes).is_ok() as usize;
    ok += wire::decode_query(bytes).is_ok() as usize;
    ok += wire::decode_scores(bytes).is_ok() as usize;
    ok += wire::decode_reliable(bytes).is_ok() as usize;
    ok += wire::decode_ack(bytes).is_ok() as usize;
    ok += wire::decode_digest(bytes).is_ok() as usize;
    ok
}

/// Runs every `ml::codec` decoder over the raw bytes (no frame envelope —
/// these are the payload-body parsers the wire layer builds on).
fn run_codec_decoders(bytes: &[u8]) -> usize {
    let mut ok = 0;
    ok += codec::decode_vector(&mut ByteReader::new(bytes)).is_ok() as usize;
    ok += codec::decode_vectors(&mut ByteReader::new(bytes)).is_ok() as usize;
    ok += codec::decode_linear_svm(&mut ByteReader::new(bytes)).is_ok() as usize;
    ok += codec::decode_kernel_svm(&mut ByteReader::new(bytes)).is_ok() as usize;
    ok += codec::decode_linear_ova(&mut ByteReader::new(bytes)).is_ok() as usize;
    ok += codec::decode_kernel_ova(&mut ByteReader::new(bytes)).is_ok() as usize;
    ok += codec::decode_example(&mut ByteReader::new(bytes)).is_ok() as usize;
    ok += codec::decode_dataset(&mut ByteReader::new(bytes)).is_ok() as usize;
    ok += codec::decode_predictions(&mut ByteReader::new(bytes)).is_ok() as usize;
    ok
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pure byte soup: no decoder may panic, whatever it is fed.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        run_wire_decoders(&bytes);
        run_codec_decoders(&bytes);
    }

    /// Byte soup behind a *valid* envelope (magic, version, known kind):
    /// exercises the payload-body parsers past the header checks that
    /// short-circuit most purely random inputs.
    #[test]
    fn framed_garbage_never_panics(
        kind in 1u8..11,
        body in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut frame = vec![wire::MAGIC, wire::VERSION, kind];
        frame.extend_from_slice(&body);
        run_wire_decoders(&frame);
    }

    /// A single flipped bit in a genuinely encoded frame — the simulator's
    /// corruption fault — must decode cleanly or fail cleanly in every
    /// decoder, not just the one matching the frame's kind.
    #[test]
    fn bit_flipped_valid_frames_never_panic(
        which in any::<usize>(),
        bit in any::<usize>(),
    ) {
        let frames = valid_frames();
        let (_, frame) = &frames[which % frames.len()];
        let bit = bit % (frame.len() * 8);
        let mut flipped = frame.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        run_wire_decoders(&flipped);
        run_codec_decoders(&flipped);
    }

    /// Truncation at an arbitrary byte boundary (the simulator's other
    /// corruption mode) must also decode or fail cleanly.
    #[test]
    fn truncated_valid_frames_never_panic(
        which in any::<usize>(),
        keep in any::<usize>(),
    ) {
        let frames = valid_frames();
        let (_, frame) = &frames[which % frames.len()];
        let keep = keep % (frame.len() + 1);
        run_wire_decoders(&frame[..keep]);
        run_codec_decoders(&frame[..keep]);
    }
}

/// Every valid frame still decodes under the fuzz harness (guards against a
/// harness that "passes" because the decoders reject everything).
#[test]
fn valid_frames_decode_under_harness() {
    for (name, frame) in valid_frames() {
        assert!(
            run_wire_decoders(frame) >= 1,
            "{name}: no wire decoder accepted its own valid frame"
        );
    }
}

/// A corrupt count/length prefix claiming far more entries than the frame
/// physically carries must be rejected up front — quickly and without the
/// prefix sizing an allocation. u64::MAX entries would be hundreds of
/// exabytes; if any decoder trusted the prefix this test would abort the
/// process instead of failing an assertion.
#[test]
fn absurd_count_prefixes_are_rejected_without_allocation() {
    // Wire frames: header + a huge varint where each body expects its count.
    for kind in [4u8, 2, 7, 10] {
        let mut frame = vec![wire::MAGIC, wire::VERSION, kind];
        codec::put_varint(&mut frame, u64::MAX);
        assert_eq!(run_wire_decoders(&frame), 0, "kind {kind}");
    }
    // A reliable frame whose length prefix exceeds the physical remainder.
    let mut frame = vec![wire::MAGIC, wire::VERSION, 8];
    codec::put_varint(&mut frame, 1); // seq
    frame.extend_from_slice(&0u64.to_le_bytes()); // bogus checksum
    codec::put_varint(&mut frame, u64::MAX); // claimed body length
    frame.extend_from_slice(&[0xAB; 16]); // 16 actual bytes
    assert!(wire::decode_reliable(&frame).is_err());
    // A linear SVM whose dimension prefix exceeds the decode cap.
    let mut body = Vec::new();
    codec::put_varint(&mut body, u64::MAX);
    assert!(codec::decode_linear_svm(&mut ByteReader::new(&body)).is_err());
    // Raw codec bodies led by a huge count.
    let mut body = Vec::new();
    codec::put_varint(&mut body, u64::MAX);
    assert_eq!(run_codec_decoders(&body), 0);
}

/// A kernel one-vs-all body written by hand: an empty shell for tags
/// `0..ids.len()`, the `dictionary`, then one linear-kernel tag per entry
/// of `ids` whose support vectors carry those dictionary ids.
fn kernel_ova_body(dictionary: &[SparseVector], ids: &[&[u64]]) -> Vec<u8> {
    let mut body = Vec::new();
    codec::put_f64(&mut body, 0.0); // threshold
    codec::put_varint(&mut body, 1); // min tags
    codec::put_varint(&mut body, ids.len() as u64);
    if !ids.is_empty() {
        body.extend_from_slice(&[2, 0]); // contiguous index block from tag 0
    }
    codec::put_varint(&mut body, dictionary.len() as u64);
    for v in dictionary {
        codec::encode_vector(v, &mut body);
    }
    for tag_ids in ids {
        body.push(0); // linear kernel
        codec::put_f64(&mut body, 0.5); // bias
        codec::put_varint(&mut body, tag_ids.len() as u64);
        body.resize(body.len() + tag_ids.len().div_ceil(8), 0xFF); // labels
        body.push(0); // f64 alphas
        for _ in tag_ids.iter() {
            codec::put_f64(&mut body, 1.0);
        }
        for &id in tag_ids.iter() {
            codec::put_varint(&mut body, id);
        }
    }
    body
}

fn kernel_model_frame(body: &[u8]) -> Vec<u8> {
    let mut frame = vec![
        wire::MAGIC,
        wire::VERSION,
        wire::PayloadKind::KernelModel as u8,
    ];
    frame.extend_from_slice(body);
    frame
}

/// The dictionary layout's own failure modes: an id past the dictionary,
/// an entry no id references, and a dictionary cut short are errors in the
/// codec and in the wire frame, never a model.
#[test]
fn bad_dictionary_ids_entries_and_truncations_are_rejected() {
    let a = SparseVector::from_pairs([(0, 1.0), (5, -2.0)]);
    let b = SparseVector::from_pairs([(3, 0.5)]);
    let decode = |body: &[u8]| codec::decode_kernel_ova(&mut ByteReader::new(body));

    // The hand-written layout is the encoder's: it decodes, and the two
    // tags' copies of `b` are one allocation.
    let good = kernel_ova_body(&[a.clone(), b.clone()], &[&[0, 1], &[1]]);
    let model = decode(&good).expect("a well-formed body decodes");
    let (first, second) = (model.classifier(0).unwrap(), model.classifier(1).unwrap());
    assert_eq!(first.support_vectors()[0].vector, a);
    assert!(first.support_vectors()[1]
        .vector
        .shares_storage_with(&second.support_vectors()[0].vector));
    assert!(wire::decode_kernel_model(&kernel_model_frame(&good)).is_ok());

    let out_of_range = kernel_ova_body(&[a.clone(), b.clone()], &[&[0, 2]]);
    let unreferenced = kernel_ova_body(&[a.clone(), b.clone()], &[&[1]]);
    let huge_id = kernel_ova_body(std::slice::from_ref(&a), &[&[u64::MAX]]);
    for (body, what) in [
        (&out_of_range, "dictionary id out of range"),
        (&unreferenced, "unreferenced dictionary entry"),
        (&huge_id, "dictionary id out of range"),
    ] {
        assert_eq!(
            decode(body).err(),
            Some(codec::CodecError::Invalid(what)),
            "{what}"
        );
        assert!(wire::decode_kernel_model(&kernel_model_frame(body)).is_err());
    }

    // Every cut inside the dictionary (after its count, before the first
    // tag's kernel byte) fails cleanly. Ahead of it: threshold, min tags,
    // tag count, index block and the dictionary count.
    let shell = 8 + 1 + 1 + 2 + 1;
    let dictionary_end = shell + {
        let mut vectors = Vec::new();
        codec::encode_vector(&a, &mut vectors);
        codec::encode_vector(&b, &mut vectors);
        vectors.len()
    };
    for cut in shell..dictionary_end {
        assert!(decode(&good[..cut]).is_err(), "cut at {cut}");
        assert!(wire::decode_kernel_model(&kernel_model_frame(&good[..cut])).is_err());
    }
}
