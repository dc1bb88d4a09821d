//! `ml`: one-vs-all training (cold, warm, kernel), cascade merging, k-means,
//! LSH neighbour search and batched scoring, on the sampled peers' own
//! training sets and the workload's held-out vectors.

use super::{Inputs, Sink};
use crate::alloc::count_allocs;
use ml::cascade::CascadeSvm;
use ml::kmeans::KMeans;
use ml::lsh::LshIndex;
use ml::{KernelSvm, LinearSvm, MultiLabelDataset, OneVsAllModel};
use p2pclassify::{CemparConfig, PaceConfig};
use std::hint::black_box;
use textproc::SparseVector;

/// Peers whose kernel models the kernel probes train (kernel training is
/// quadratic in the peer's documents and slow to repeat).
const KERNEL_PEERS: usize = 24;

/// Models trained here that the codec and wire probes encode.
pub struct Trained {
    /// One linear model per sampled peer.
    pub linear: Vec<OneVsAllModel<LinearSvm>>,
    /// One kernel model per peer of the kernel sample.
    pub kernel: Vec<OneVsAllModel<KernelSvm>>,
    /// One peer's k-means centroids.
    pub centroids: Vec<SparseVector>,
}

/// Runs the `ml.*` training, index and scoring probes.
pub fn run(inputs: &Inputs, sink: &mut Sink<'_>) -> Trained {
    let pace = PaceConfig::default();
    let cempar = CemparConfig::default();
    let peers = &inputs.peer_data;
    let docs = inputs.peer_docs();

    // Linear training: every sampled peer, cold and then warm from the cold
    // model with one more document (what an incremental epoch does).
    let mut linear = Vec::new();
    sink.time("ml.train_linear_cold_us_per_doc", "us", docs, || {
        linear = peers
            .iter()
            .map(|data| pace.one_vs_all.train_linear_csr(black_box(data), &pace.svm))
            .collect();
    });
    let (_, allocs) = count_allocs(|| {
        for data in peers {
            black_box(pace.one_vs_all.train_linear_csr(data, &pace.svm));
        }
    });
    sink.value(
        "ml.train_linear_allocs_per_doc",
        allocs as f64 / docs as f64,
        "count",
        docs,
    );
    sink.time("ml.train_linear_warm_us_per_doc", "us", docs, || {
        for (data, prev) in peers.iter().zip(&linear) {
            black_box(
                pace.one_vs_all
                    .train_linear_warm_csr(black_box(data), &pace.svm, prev),
            );
        }
    });

    // Kernel training on a smaller sample; warm refits fold in the last
    // document of each peer's set.
    let kernel_peers = &peers[..peers.len().min(KERNEL_PEERS)];
    let kernel_docs: usize = kernel_peers.iter().map(MultiLabelDataset::len).sum();
    let mut kernel = Vec::new();
    sink.time("ml.train_kernel_us_per_doc", "us", kernel_docs, || {
        kernel = kernel_peers
            .iter()
            .map(|data| {
                cempar
                    .one_vs_all
                    .train_kernel_shared(black_box(data), &cempar.svm)
            })
            .collect();
    });
    let newest: Vec<MultiLabelDataset> = kernel_peers
        .iter()
        .map(|data| MultiLabelDataset::from_examples(vec![data.example(data.len() - 1)]))
        .collect();
    sink.time("ml.train_kernel_warm_us_per_doc", "us", kernel_docs, || {
        for ((data, new), prev) in kernel_peers.iter().zip(&newest).zip(&kernel) {
            black_box(
                cempar
                    .one_vs_all
                    .train_kernel_warm(black_box(data), new, &cempar.svm, prev),
            );
        }
    });

    // Cascade merge of one region's models for the most widely known tag.
    let region: Vec<KernelSvm> = (0..inputs.corpus.num_tags() as ml::TagId)
        .map(|tag| {
            kernel
                .iter()
                .filter_map(|m| m.classifier(tag).cloned())
                .collect::<Vec<_>>()
        })
        .max_by_key(Vec::len)
        .unwrap_or_default();
    let cascade = CascadeSvm::new(cempar.cascade.clone());
    sink.time("ml.cascade_merge_us", "us", 1, || {
        black_box(cascade.merge(black_box(&region)));
    });

    // K-means over each sampled peer's vectors (PACE's model centroids).
    sink.time("ml.kmeans_fit_us_per_peer", "us", peers.len(), || {
        for data in peers {
            black_box(KMeans::fit(black_box(data.vectors()), &pace.kmeans));
        }
    });
    let centroids: Vec<Vec<SparseVector>> = peers
        .iter()
        .map(|data| {
            KMeans::fit(data.vectors(), &pace.kmeans)
                .centroids()
                .to_vec()
        })
        .collect();

    // An LSH index as large as the workload's: every peer's centroids. The
    // sampled peers' centroids are cycled to reach that size.
    let entries = inputs.peers * pace.kmeans.k;
    let keys: Vec<&SparseVector> = centroids.iter().flatten().cycle().take(entries).collect();
    sink.time("ml.lsh_insert_us", "us", entries, || {
        let mut index = LshIndex::new(pace.lsh.clone());
        for (item, &key) in keys.iter().enumerate() {
            index.insert(key.clone(), item);
        }
        black_box(index.len());
    });
    let mut index = LshIndex::new(pace.lsh.clone());
    for (item, &key) in keys.iter().enumerate() {
        index.insert(key.clone(), item);
    }
    let queries: Vec<&SparseVector> = inputs
        .held_out
        .iter()
        .map(|&doc| inputs.vectorized.vector(doc))
        .collect();
    sink.time("ml.lsh_query_us", "us", queries.len(), || {
        for &query in &queries {
            black_box(index.query_batched(black_box(query), pace.top_k));
        }
    });

    // Scoring: each held-out vector against one peer's model, linear and kernel.
    let matrices: Vec<_> = linear.iter().map(OneVsAllModel::weight_matrix).collect();
    let mut scratch = Vec::new();
    sink.time("ml.score_linear_us_per_doc", "us", queries.len(), || {
        for (i, &query) in queries.iter().enumerate() {
            black_box(
                matrices[i % matrices.len()].scores_with_scratch(black_box(query), &mut scratch),
            );
        }
    });
    let (_, allocs) = count_allocs(|| {
        for (i, &query) in queries.iter().enumerate() {
            black_box(matrices[i % matrices.len()].scores_with_scratch(query, &mut scratch));
        }
    });
    sink.value(
        "ml.score_linear_allocs_per_doc",
        allocs as f64 / queries.len() as f64,
        "count",
        queries.len(),
    );
    let scorers: Vec<_> = kernel.iter().map(OneVsAllModel::kernel_scorer).collect();
    sink.time("ml.score_kernel_us_per_doc", "us", queries.len(), || {
        for (i, &query) in queries.iter().enumerate() {
            black_box(scorers[i % scorers.len()].scores(black_box(query)));
        }
    });

    Trained {
        linear,
        kernel,
        centroids: centroids.into_iter().next().unwrap_or_default(),
    }
}
