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
//! Two properties hold the decoders to their value contract: every model,
//! vector, centroid and dataset that decodes carries only finite values,
//! and a PACE install that decodes an accuracy in `[0, 1]`.
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
        let linear = OneVsAllTrainer::default().train_linear_csr(&ds, &LinearSvmTrainer::default());
        let kernel =
            OneVsAllTrainer::default().train_kernel_shared(&ds, &KernelSvmTrainer::default());
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
        let pace_model = wire::encode_pace_model(&linear, 0.9375, WeightPrecision::F64);
        let pace_centroids = wire::encode_centroids(&centroids);
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
            (
                "pace_install",
                wire::encode_install(3, 2, &[&pace_model, &pace_centroids]),
            ),
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
    if let Ok((_, _, parts)) = wire::decode_install(bytes) {
        ok += 1;
        for part in parts {
            ok += run_wire_decoders(part);
        }
    }
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

fn finite_vector(v: &SparseVector) -> bool {
    v.values().iter().all(|x| x.is_finite())
}

/// Whether every value the model, vector, centroid and dataset decoders
/// return for `bytes` is finite (vacuously so when none decodes).
fn decoded_values_are_finite(bytes: &[u8]) -> bool {
    let linear = wire::decode_pace_model(bytes).map_or(true, |(model, _)| {
        model.threshold().is_finite()
            && model.iter().all(|(_, clf)| {
                clf.bias().is_finite() && clf.values().iter().all(|w| w.is_finite())
            })
    });
    let kernel = wire::decode_kernel_model(bytes).map_or(true, |model| {
        model.threshold().is_finite()
            && model.iter().all(|(_, clf)| {
                clf.bias().is_finite()
                    && clf
                        .support_vectors()
                        .iter()
                        .all(|sv| sv.alpha.is_finite() && finite_vector(&sv.vector))
            })
    });
    let centroids = wire::decode_centroids(bytes).map_or(true, |cs| cs.iter().all(finite_vector));
    let dataset =
        wire::decode_dataset(bytes).map_or(true, |ds| ds.iter().all(|(v, _)| finite_vector(v)));
    let example = wire::decode_example(bytes).map_or(true, |ex| finite_vector(&ex.vector));
    let query = wire::decode_query(bytes).map_or(true, |q| finite_vector(&q));
    linear && kernel && centroids && dataset && example && query
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

    /// Every PACE install that decodes carries finite centroids and an
    /// accuracy in `[0, 1]`. The valid install is forged by writing an f64
    /// (any bit pattern, or NaN, ±∞, 1e9, -0.5) over the accuracy, over a
    /// centroid value or at an arbitrary offset, and by flipping one bit;
    /// whatever still decodes is held to the contract.
    #[test]
    fn decoded_pace_installs_carry_finite_centroids_and_a_unit_accuracy(
        target in any::<usize>(),
        bits in any::<u64>(),
        special in 0usize..6,
        bit in any::<usize>(),
    ) {
        let install = &valid_frames().iter().find(|(name, _)| *name == "pace_install").unwrap().1;
        // The accuracy, then the centroid values, then anywhere.
        let aimed: Vec<usize> = [0.9375, 1.0, 0.5, 0.9]
            .iter()
            .map(|v: &f64| install.windows(8).position(|w| w == v.to_le_bytes()).unwrap())
            .collect();
        let at = match target % (aimed.len() + 1) {
            i if i < aimed.len() => aimed[i],
            _ => target % (install.len() - 7),
        };
        let value = [f64::from_bits(bits), f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e9, -0.5][special];
        let mut forged = install.clone();
        forged[at..at + 8].copy_from_slice(&value.to_le_bytes());
        let bit = bit % (install.len() * 8);
        let mut flipped = install.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        for frame in [forged, flipped] {
            let Ok((_, _, parts)) = wire::decode_install(&frame) else { continue };
            let &[model, centroids] = parts.as_slice() else { continue };
            let (Ok((_, accuracy)), Ok(centroids)) =
                (wire::decode_pace_model(model), wire::decode_centroids(centroids))
            else {
                continue;
            };
            prop_assert!((0.0..=1.0).contains(&accuracy), "accuracy {}", accuracy);
            let finite = centroids.iter().all(|c| c.values().iter().all(|x| x.is_finite()));
            prop_assert!(finite, "a decoded centroid holds a non-finite value");
        }
    }

    /// Every frame that decodes carries only finite values. A valid frame
    /// is forged by writing an f64 (any bit pattern, or NaN, ±∞) at an
    /// arbitrary offset, and by flipping one bit; whatever still decodes is
    /// held to the contract.
    #[test]
    fn decoded_frames_carry_only_finite_values(
        which in any::<usize>(),
        target in any::<usize>(),
        bits in any::<u64>(),
        special in 0usize..4,
        bit in any::<usize>(),
    ) {
        let frames = valid_frames();
        let (name, frame) = &frames[which % frames.len()];
        let value = [f64::from_bits(bits), f64::NAN, f64::INFINITY, f64::NEG_INFINITY][special];
        let forged = (frame.len() >= 8).then(|| {
            let at = target % (frame.len() - 7);
            let mut forged = frame.clone();
            forged[at..at + 8].copy_from_slice(&value.to_le_bytes());
            forged
        });
        let bit = bit % (frame.len() * 8);
        let mut flipped = frame.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        for bytes in forged.into_iter().chain([flipped]) {
            prop_assert!(decoded_values_are_finite(&bytes), "{}: {:?}", name, bytes);
        }
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

/// A linear one-vs-all body written by hand: a shell over tags
/// `0..tags.len()`, a support of `support_count` entries written as a
/// contiguous block from feature 0, then per tag its dimension, a zero
/// bias, its mode byte, `bitmap` and an f64 value block of `values`.
fn linear_ova_body(support_count: u64, tags: &[(u64, u8, &[u8], usize)]) -> Vec<u8> {
    let mut body = Vec::new();
    codec::put_f64(&mut body, 0.0); // threshold
    codec::put_varint(&mut body, 1); // min tags
    codec::put_varint(&mut body, tags.len() as u64);
    if !tags.is_empty() {
        body.extend_from_slice(&[2, 0]); // contiguous index block from tag 0
    }
    codec::put_varint(&mut body, support_count);
    if support_count > 0 {
        body.extend_from_slice(&[2, 0]); // support: features 0..support_count
    }
    for &(dim, mode, bitmap, values) in tags {
        codec::put_varint(&mut body, dim);
        codec::put_f64(&mut body, 0.0); // bias
        body.push(mode);
        body.extend_from_slice(bitmap);
        body.push(0); // f64 values
        for _ in 0..values {
            codec::put_f64(&mut body, 1.0);
        }
    }
    body
}

fn pace_model_frame(body: &[u8]) -> Vec<u8> {
    let mut frame = vec![
        wire::MAGIC,
        wire::VERSION,
        wire::PayloadKind::LinearModel as u8,
    ];
    codec::put_f64(&mut frame, 0.5); // accuracy
    frame.extend_from_slice(body);
    frame
}

/// The shared-support layout's own failure modes: a mode byte that is
/// neither 0 nor 1, a bitmap cut short, a support count the frame cannot
/// hold (which would reserve ≈ 2^62 indices if trusted), and a support
/// index at or past a tag's dimension are errors in the codec and in the
/// wire frame, never a model.
#[test]
fn bad_support_modes_bitmaps_counts_and_indices_are_rejected() {
    let decode = |body: &[u8]| codec::decode_linear_ova(&mut ByteReader::new(body));

    // The hand-written layout is the encoder's: the whole support, then a
    // bitmap holding features 1 and 9 of 0..12.
    let good = linear_ova_body(12, &[(12, 0, &[], 12), (12, 1, &[0b10, 0b10], 2)]);
    let model = decode(&good).expect("a well-formed body decodes");
    assert_eq!(model.classifier(1).unwrap().indices(), &[1, 9]);
    assert!(wire::decode_pace_model(&pace_model_frame(&good)).is_ok());

    let bad_mode = linear_ova_body(12, &[(12, 7, &[], 12)]);
    // One of the two bitmap bytes, then the end of the body.
    let mut short_bitmap = linear_ova_body(12, &[(12, 0, &[], 12), (12, 1, &[0b10], 0)]);
    short_bitmap.pop(); // the value block's precision byte
    let huge_support = linear_ova_body(u64::MAX >> 2, &[(12, 0, &[], 3)]);
    let past_dim = linear_ova_body(12, &[(11, 0, &[], 12)]);
    let past_dim_bitmap = linear_ova_body(12, &[(12, 0, &[], 12), (11, 1, &[0, 0b1000], 1)]);
    for (body, what) in [
        (
            &bad_mode,
            Some(codec::CodecError::Invalid("unknown support mode")),
        ),
        (&short_bitmap, Some(codec::CodecError::Truncated)),
        (
            &huge_support,
            Some(codec::CodecError::Invalid("count exceeds payload size")),
        ),
        (
            &past_dim,
            Some(codec::CodecError::Invalid("weight index out of range")),
        ),
        (
            &past_dim_bitmap,
            Some(codec::CodecError::Invalid("weight index out of range")),
        ),
    ] {
        assert_eq!(decode(body).err(), what, "{what:?}");
        assert!(wire::decode_pace_model(&pace_model_frame(body)).is_err());
    }
    // Every cut of the good body fails cleanly, in the codec and framed.
    for cut in 0..good.len() {
        assert!(decode(&good[..cut]).is_err(), "cut at {cut}");
        assert!(wire::decode_pace_model(&pace_model_frame(&good[..cut])).is_err());
    }
}
