//! `ml::codec` and `p2pclassify::wire`: what it costs to put a model on the
//! wire and take it off again, and how many bytes it is. Byte counts repeat
//! exactly for a given seed.

use super::models::Trained;
use super::Sink;
use ml::codec::{self, ByteReader, WeightPrecision};
use p2pclassify::wire;
use std::hint::black_box;

/// Runs the `ml.codec.*` and `wire.*` probes on the models `trained` holds.
pub fn run(trained: &Trained, sink: &mut Sink<'_>) {
    let precision = WeightPrecision::F64;

    let mut linear_bytes = Vec::new();
    sink.time(
        "ml.codec.encode_linear_us",
        "us",
        trained.linear.len(),
        || {
            linear_bytes = trained
                .linear
                .iter()
                .map(|model| {
                    let mut buf = Vec::new();
                    codec::encode_linear_ova(black_box(model), precision, &mut buf);
                    buf
                })
                .collect();
        },
    );
    sink.time(
        "ml.codec.decode_linear_us",
        "us",
        linear_bytes.len(),
        || {
            for bytes in &linear_bytes {
                black_box(codec::decode_linear_ova(&mut ByteReader::new(black_box(bytes))).ok());
            }
        },
    );
    let total: usize = linear_bytes.iter().map(Vec::len).sum();
    sink.value(
        "ml.codec.linear_model_bytes",
        total as f64 / linear_bytes.len() as f64,
        "bytes",
        linear_bytes.len(),
    );

    let mut kernel_bytes = Vec::new();
    sink.time(
        "ml.codec.encode_kernel_us",
        "us",
        trained.kernel.len(),
        || {
            kernel_bytes = trained
                .kernel
                .iter()
                .map(|model| {
                    let mut buf = Vec::new();
                    codec::encode_kernel_ova(black_box(model), precision, &mut buf);
                    buf
                })
                .collect();
        },
    );
    sink.time(
        "ml.codec.decode_kernel_us",
        "us",
        kernel_bytes.len(),
        || {
            for bytes in &kernel_bytes {
                black_box(codec::decode_kernel_ova(&mut ByteReader::new(black_box(bytes))).ok());
            }
        },
    );
    let total: usize = kernel_bytes.iter().map(Vec::len).sum();
    sink.value(
        "ml.codec.kernel_model_bytes",
        total as f64 / kernel_bytes.len() as f64,
        "bytes",
        kernel_bytes.len(),
    );

    // The install envelope a PACE peer broadcasts: model frame + centroids.
    let model_frame = wire::encode_pace_model(&trained.linear[0], 0.9, precision);
    let centroid_frame = wire::encode_centroids(&trained.centroids);
    let mut envelope = Vec::new();
    sink.time("wire.encode_install_ns", "ns", 1, || {
        envelope = wire::encode_install(7, 3, black_box(&[&model_frame, &centroid_frame]));
    });
    sink.time("wire.decode_install_ns", "ns", 1, || {
        black_box(wire::decode_install(black_box(&envelope)).ok());
    });
    sink.time("wire.reliable_wrap_ns", "ns", 1, || {
        let wrapped = wire::encode_reliable(11, black_box(&envelope));
        black_box(wire::decode_reliable(&wrapped).ok());
    });
}
