//! `textproc`: raw text to terms and vectors, and the sparse kernels the
//! trainers and scorers are built on.

use super::{Inputs, Sink};
use std::hint::black_box;
use textproc::PreprocessPipeline;

/// Documents the text probes replay.
const TEXT_SAMPLE: usize = 1_000;

/// Runs the `textproc.*` probes.
pub fn run(inputs: &Inputs, sink: &mut Sink<'_>) {
    let docs = inputs.corpus.documents();
    let texts: Vec<&str> = docs
        .iter()
        .take(TEXT_SAMPLE)
        .map(|d| d.text.as_str())
        .collect();

    let pipeline = PreprocessPipeline::new();
    sink.time("textproc.terms_us_per_doc", "us", texts.len(), || {
        for text in &texts {
            black_box(pipeline.terms(black_box(text)));
        }
    });
    sink.time(
        "textproc.fit_transform_us_per_doc",
        "us",
        texts.len(),
        || {
            let mut pipeline = PreprocessPipeline::new();
            pipeline.fit(texts.iter().copied());
            black_box(pipeline.transform_batch(black_box(&texts)));
        },
    );

    // One peer's arena, as the CSR trainer sees it.
    let arena = inputs
        .peer_data
        .iter()
        .max_by_key(|d| d.len())
        .expect("at least one peer has training data")
        .to_csr();
    let rows = arena.num_rows();
    let mut weights = vec![0.5f64; arena.dim()];
    sink.time("textproc.csr_row_dot_ns", "ns", rows, || {
        for i in 0..rows {
            black_box(arena.row_dot_dense(i, black_box(&weights)));
        }
    });
    sink.time("textproc.csr_row_axpy_ns", "ns", rows, || {
        for i in 0..rows {
            arena.row_axpy_into(i, 1e-9, black_box(&mut weights));
        }
    });

    let vectors: Vec<_> = inputs
        .held_out
        .iter()
        .map(|&doc| inputs.vectorized.vector(doc))
        .collect();
    sink.time("textproc.sparse_dot_ns", "ns", vectors.len() - 1, || {
        for pair in vectors.windows(2) {
            black_box(pair[0].dot(black_box(pair[1])));
        }
    });
}
