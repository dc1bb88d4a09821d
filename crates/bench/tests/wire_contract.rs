//! The lossless wire codec's contract on every payload class the four
//! protocols put on the network: for each class, every payload decodes back
//! to exactly what was encoded, and the measured frame bytes stay within
//! 10 % of the `wire_size()` estimate the protocols charged before the codec
//! existed. Workload: 12 users, one peer each, training documents, seed 2010.

use dataset::{CorpusGenerator, CorpusSpec, TrainTestSplit, VectorizedCorpus};
use ml::codec::WeightPrecision::F64;
use ml::kmeans::KMeans;
use ml::multilabel::{OneVsAllModel, OneVsAllTrainer};
use ml::svm::{BinaryClassifier, KernelSvmTrainer, LinearSvm, LinearSvmTrainer};
use ml::MultiLabelDataset;
use p2pclassify::{wire, CemparConfig, PaceConfig};
use textproc::SparseVector;

const SEED: u64 = 2010;

fn models_equal<C: PartialEq + BinaryClassifier>(
    a: &OneVsAllModel<C>,
    b: &OneVsAllModel<C>,
) -> bool {
    a.num_tags() == b.num_tags()
        && a.threshold() == b.threshold()
        && a.min_tags() == b.min_tags()
        && a.iter().eq(b.iter())
}

/// Mean per-tag binary training accuracy of a one-vs-all model on a dataset
/// — the quantity PACE ships as its vote weight. 1.0 on an empty dataset or
/// a tag-less model.
fn ensemble_accuracy(model: &OneVsAllModel<LinearSvm>, data: &MultiLabelDataset) -> f64 {
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

/// Encodes every payload of one class, checks each round trip, and checks
/// that the summed frame bytes are at most 1.10× the summed estimates.
fn check<T>(
    class: &str,
    payloads: &[T],
    estimate: impl Fn(&T) -> usize,
    encode: impl Fn(&T) -> Vec<u8>,
    round_trips: impl Fn(&T, &[u8]) -> bool,
) {
    assert!(!payloads.is_empty(), "{class}: no payloads");
    let (mut estimated, mut measured) = (0, 0);
    for p in payloads {
        let frame = encode(p);
        assert!(round_trips(p, &frame), "{class}: decode differs from input");
        estimated += estimate(p);
        measured += frame.len();
    }
    assert!(
        measured as f64 <= estimated as f64 * 1.10,
        "{class}: {measured} measured bytes exceed the {estimated}-byte estimate by more than 10 %"
    );
}

#[test]
fn every_payload_class_round_trips_within_its_byte_estimate() {
    let corpus = CorpusGenerator::new(CorpusSpec {
        num_tags: 48,
        num_users: 12,
        min_docs_per_user: 12,
        max_docs_per_user: 20,
        words_per_doc: 40,
        words_per_tag: 25,
        background_vocab: 300,
        interests_per_user: 6,
        seed: SEED,
        ..CorpusSpec::default()
    })
    .generate();
    let split = TrainTestSplit::stratified_by_user(&corpus, 0.2, SEED ^ 0xABCD);
    let vectorized = VectorizedCorpus::build(&corpus);
    let train: std::collections::BTreeSet<_> = split.train.iter().copied().collect();
    let peer_data: Vec<MultiLabelDataset> = corpus
        .documents_by_user()
        .into_iter()
        .map(|docs| {
            let mine = docs.into_iter().filter(|d| train.contains(d));
            mine.map(|d| vectorized.example(d)).collect()
        })
        .filter(|d: &MultiLabelDataset| !d.is_empty())
        .collect();
    let ova = OneVsAllTrainer::default();
    let linear = LinearSvmTrainer::default();

    let pace_models: Vec<_> = peer_data
        .iter()
        .map(|d| {
            let m = ova.train_linear_csr(d, &linear);
            let acc = ensemble_accuracy(&m, d);
            (m, acc)
        })
        .filter(|(m, _)| m.num_tags() > 0)
        .collect();
    check(
        "pace-model",
        &pace_models,
        |(m, _)| m.wire_size() + 8,
        |(m, acc)| wire::encode_pace_model(m, *acc, F64),
        |(m, acc), f| {
            let (dm, dacc) = wire::decode_pace_model(f).expect("pace model frame decodes");
            models_equal(m, &dm) && dacc == *acc
        },
    );

    let kmeans = PaceConfig::default().kmeans;
    let centroids: Vec<Vec<SparseVector>> = peer_data
        .iter()
        .map(|d| KMeans::fit(d.vectors(), &kmeans).centroids().to_vec())
        .collect();
    check(
        "pace-centroids",
        &centroids,
        |cs| cs.iter().map(SparseVector::wire_size).sum(),
        |cs| wire::encode_centroids(cs),
        |cs, f| wire::decode_centroids(f).expect("centroid frame decodes") == *cs,
    );

    let kernel: KernelSvmTrainer = CemparConfig::default().svm;
    let cempar_models: Vec<_> = peer_data
        .iter()
        .map(|d| ova.train_kernel_shared(d, &kernel))
        .filter(|m| m.num_tags() > 0)
        .collect();
    check(
        "cempar-model",
        &cempar_models,
        |m| m.wire_size(),
        |m| wire::encode_kernel_model(m, F64),
        |m, f| {
            models_equal(
                m,
                &wire::decode_kernel_model(f).expect("kernel frame decodes"),
            )
        },
    );

    check(
        "training-data",
        &peer_data,
        MultiLabelDataset::wire_size,
        wire::encode_dataset,
        |d, f| wire::decode_dataset(f).expect("dataset frame decodes") == *d,
    );

    let queries: Vec<SparseVector> = split
        .test
        .iter()
        .take(200)
        .map(|&d| vectorized.example(d).vector)
        .collect();
    check(
        "query",
        &queries,
        SparseVector::wire_size,
        wire::encode_query,
        |q, f| wire::decode_query(f).expect("query frame decodes") == *q,
    );

    // Responses: the pooled model's score lists for the queries, the shape
    // CEMPaR and Centralized super-peers send back.
    let pooled: MultiLabelDataset = split.train.iter().map(|&d| vectorized.example(d)).collect();
    let pooled_model = ova.train_linear_csr(&pooled, &linear);
    let responses: Vec<_> = queries.iter().map(|q| pooled_model.scores(q)).collect();
    check(
        "scores",
        &responses,
        |r| r.len() * (std::mem::size_of::<u32>() + 8),
        |r| wire::encode_scores(r),
        |r, f| wire::decode_scores(f).expect("score frame decodes") == *r,
    );
}
