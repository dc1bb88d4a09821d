//! Cascade SVM merging, the core of CEMPaR's super-peer aggregation.
//!
//! In the cascade SVM paradigm, models trained on disjoint partitions are
//! combined by pooling their support vectors and retraining an SVM on the
//! pooled set; because non-support vectors cannot become support vectors of the
//! combined problem's solution in practice, this approximates training on the
//! union of the partitions at a fraction of the cost. CEMPaR's super-peers use
//! exactly this to build "regional cascaded models" from the local models that
//! peers propagate to them (§2 of the paper).
//!
//! [`CascadeSvm::merge`] is a pure function of its input models, in the
//! order given: retraining is seeded, and the Gram matrix of the pooled
//! support vectors is exact ([`crate::svm::gram_matrix`]). CEMPaR relies on
//! that to merge per tag and, when one contributor's model changes, to
//! re-merge only the tags that model carries — every other tag's merge would
//! reproduce its current result bit for bit.
//!
//! Every pool of two or more models merges in one step: its models' support
//! vectors are pooled and retrained together. A re-cascade merges all of a
//! region's changed tags at once ([`CascadeSvm::merge_pools`], of which
//! `merge` is the one-pool case). A document is a support vector of several
//! tags, so their pools overlap: one Gram matrix is evaluated over the
//! distinct vectors of the pools that retrain, and each pool's block is
//! gathered, in its pool order, for that pool's SMO. The block equals the
//! pool's own `gram_matrix` bit for bit, because the dot product is bitwise
//! symmetric on NaN-free inputs (its products commute): an entry read
//! across the union's diagonal is the same value. With NaN inputs the same
//! entries are NaN, but which NaN (payload, sign) can differ where the
//! union's order swaps a pair, so merges then agree up to which NaN they
//! hold.

use crate::distinct::DistinctIds;
use crate::svm::{gram_matrix, KernelSvm, KernelSvmTrainer, SupportVector};
use serde::{Deserialize, Serialize};
use textproc::SparseVector;

/// Configuration of the cascade merge.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CascadeConfig {
    /// Trainer used for the retraining step.
    pub trainer: KernelSvmTrainer,
    /// When `true` (the default) the pooled support vectors are retrained;
    /// when `false` the pooled SVs are used as-is with their original alphas
    /// (a cheaper but cruder merge, kept for the ablation experiment A2).
    pub retrain: bool,
}

impl Default for CascadeConfig {
    fn default() -> Self {
        Self {
            trainer: KernelSvmTrainer::default(),
            retrain: true,
        }
    }
}

/// Cascade-SVM combiner.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CascadeSvm {
    config: CascadeConfig,
}

impl CascadeSvm {
    /// Creates a combiner with the given configuration.
    pub fn new(config: CascadeConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CascadeConfig {
        &self.config
    }

    /// Merges several local models into one cascaded model — the one-pool
    /// case of [`Self::merge_pools`].
    ///
    /// Returns `None` when `models` is empty, or holds two or more models
    /// none of which carries a support vector.
    pub fn merge(&self, models: &[KernelSvm]) -> Option<KernelSvm> {
        self.merge_pools(&[models.iter().collect()]).pop().flatten()
    }

    /// Merges each pool of models into one cascaded model, in pool order:
    /// result `p` is [`Self::merge`] of pool `p`'s models.
    ///
    /// An empty pool has no result, and a one-model pool's result is its
    /// model. The pools of two or more models share their kernel work: those
    /// that retrain (both classes present) are numbered by their distinct
    /// vectors, one [`gram_matrix`] is evaluated over those, and each
    /// pool's retrain reads its block of it, gathered in the pool's order.
    /// A document that is a support vector of several pools' tags is thus
    /// evaluated once, not once per pool.
    pub fn merge_pools(&self, pools: &[Vec<&KernelSvm>]) -> Vec<Option<KernelSvm>> {
        /// A pool's merge: finished, or waiting for its Gram block.
        enum Step<'m> {
            Done(Option<KernelSvm>),
            Retrain(Vec<&'m SupportVector>, Vec<u32>),
        }
        let mut ids = DistinctIds::new();
        let mut distinct: Vec<SparseVector> = Vec::new();
        let mut steps = Vec::with_capacity(pools.len());
        for models in pools {
            if let [model] = models[..] {
                steps.push(Step::Done(Some(model.clone())));
                continue;
            }
            let pooled: Vec<&SupportVector> =
                models.iter().flat_map(|m| m.support_vectors()).collect();
            if pooled.is_empty() {
                steps.push(Step::Done(None));
                continue;
            }
            let mean_bias = || models.iter().map(|m| m.bias()).sum::<f64>() / models.len() as f64;
            if !self.config.retrain {
                // Keep the original dual coefficients, average the biases, and
                // normalize alphas by the number of models so votes stay
                // bounded.
                let scale = 1.0 / models.len() as f64;
                let svs = pooled
                    .into_iter()
                    .map(|sv| SupportVector {
                        alpha: sv.alpha * scale,
                        ..sv.clone()
                    })
                    .collect();
                steps.push(Step::Done(Some(KernelSvm::from_support_vectors(
                    svs,
                    mean_bias(),
                ))));
                continue;
            }
            // Retrain on the pooled support vectors only when both classes
            // are present; otherwise fall back to the coefficient-preserving
            // merge.
            let has_pos = pooled.iter().any(|sv| sv.label);
            let has_neg = pooled.iter().any(|sv| !sv.label);
            if !(has_pos && has_neg) {
                let svs = pooled.into_iter().cloned().collect();
                steps.push(Step::Done(Some(KernelSvm::from_support_vectors(
                    svs,
                    mean_bias(),
                ))));
                continue;
            }
            let local = pooled
                .iter()
                .map(|sv| {
                    let (id, first) = ids.id(&sv.vector);
                    if first {
                        distinct.push(sv.vector.clone());
                    }
                    id
                })
                .collect();
            steps.push(Step::Retrain(pooled, local));
        }
        let gram = gram_matrix(&distinct);
        let width = distinct.len();
        steps
            .into_iter()
            .map(|step| match step {
                Step::Done(model) => model,
                Step::Retrain(pooled, local) => {
                    let mut block = Vec::with_capacity(local.len() * local.len());
                    for &a in &local {
                        let row = &gram[a as usize * width..(a as usize + 1) * width];
                        block.extend(local.iter().map(|&b| row[b as usize]));
                    }
                    let xs: Vec<SparseVector> = pooled.iter().map(|sv| sv.vector.clone()).collect();
                    let ys: Vec<bool> = pooled.iter().map(|sv| sv.label).collect();
                    Some(self.config.trainer.train_with_gram(&xs, &ys, &block))
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::wild;
    use crate::svm::{accuracy_on, BinaryClassifier};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn separable(n: usize, seed: u64) -> (Vec<SparseVector>, Vec<bool>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let y = rng.gen_bool(0.5);
            let offset = if y { 1.0 } else { -1.0 };
            xs.push(SparseVector::from_pairs([
                (0, offset + rng.gen_range(-0.3..0.3)),
                (1, offset + rng.gen_range(-0.3..0.3)),
            ]));
            ys.push(y);
        }
        (xs, ys)
    }

    fn partitioned_models(
        parts: usize,
        per_part: usize,
        seed: u64,
    ) -> (Vec<KernelSvm>, Vec<SparseVector>, Vec<bool>) {
        let (xs, ys) = separable(parts * per_part, seed);
        let trainer = KernelSvmTrainer::default();
        let mut models = Vec::new();
        for p in 0..parts {
            let lo = p * per_part;
            let hi = lo + per_part;
            models.push(trainer.train(&xs[lo..hi], &ys[lo..hi]));
        }
        (models, xs, ys)
    }

    #[test]
    fn merged_model_is_accurate_on_the_union() {
        let (models, xs, ys) = partitioned_models(4, 40, 21);
        let cascade = CascadeSvm::default();
        let merged = cascade.merge(&models).expect("merge produces a model");
        assert!(accuracy_on(&merged, &xs, &ys) > 0.95);
    }

    #[test]
    fn merged_model_has_fewer_svs_than_pooled_training_data() {
        let (models, xs, _ys) = partitioned_models(4, 50, 22);
        let cascade = CascadeSvm::default();
        let merged = cascade.merge(&models).unwrap();
        assert!(merged.num_support_vectors() < xs.len());
        assert!(merged.num_support_vectors() > 0);
    }

    #[test]
    fn merge_of_single_model_is_identity() {
        let (models, xs, _) = partitioned_models(1, 30, 23);
        let cascade = CascadeSvm::default();
        let merged = cascade.merge(&models).unwrap();
        for x in &xs {
            assert!((merged.decision(x) - models[0].decision(x)).abs() < 1e-12);
        }
    }

    #[test]
    fn merge_of_empty_slice_is_none() {
        let cascade = CascadeSvm::default();
        assert!(cascade.merge(&[]).is_none());
    }

    #[test]
    fn no_retrain_merge_still_classifies() {
        let (models, xs, ys) = partitioned_models(3, 40, 24);
        let cascade = CascadeSvm::new(CascadeConfig {
            retrain: false,
            ..CascadeConfig::default()
        });
        let merged = cascade.merge(&models).unwrap();
        assert!(accuracy_on(&merged, &xs, &ys) > 0.85);
    }

    #[test]
    fn single_class_models_merge_without_retraining() {
        // Two "models" whose SVs are all positive: retraining is impossible,
        // the merge must still return a usable model.
        let sv = |v: f64| SupportVector {
            vector: SparseVector::from_pairs([(0, v)]),
            label: true,
            alpha: 1.0,
        };
        let m1 = KernelSvm::from_support_vectors(vec![sv(1.0)], 0.1);
        let m2 = KernelSvm::from_support_vectors(vec![sv(2.0)], 0.3);
        let merged = CascadeSvm::default().merge(&[m1, m2]).unwrap();
        assert_eq!(merged.num_support_vectors(), 2);
        assert!(merged.predict(&SparseVector::from_pairs([(0, 1.5)])));
    }

    /// `x`'s bits, every NaN read as the one NaN.
    fn nan_class(x: f64) -> u64 {
        if x.is_nan() {
            f64::NAN.to_bits()
        } else {
            x.to_bits()
        }
    }

    /// [`KernelSvm::bit_eq`] up to which NaN a NaN is.
    fn eq_by_nan_class(a: &KernelSvm, b: &KernelSvm) -> bool {
        let same = |x: f64, y: f64| nan_class(x) == nan_class(y);
        same(a.bias(), b.bias())
            && a.num_support_vectors() == b.num_support_vectors()
            && a.support_vectors()
                .iter()
                .zip(b.support_vectors())
                .all(|(p, q)| {
                    p.label == q.label
                        && same(p.alpha, q.alpha)
                        && p.vector.indices() == q.vector.indices()
                        && p.vector
                            .values()
                            .iter()
                            .zip(q.vector.values())
                            .all(|(&x, &y)| same(x, y))
                })
    }

    /// One model of a pool: `(vector pick, shares storage, label, alpha)`
    /// per support vector, and a bias.
    type ModelSpec = (Vec<(usize, bool, bool, f64)>, f64);

    fn arb_model() -> impl Strategy<Value = ModelSpec> {
        (
            prop::collection::vec(
                (0usize..6, any::<bool>(), any::<bool>(), 0.05f64..2.0),
                0..5,
            ),
            -1.0f64..1.0,
        )
    }

    /// Checks `merge_pools` against per-pool `merge` over pools drawn from
    /// one vector pool: shared and content-equal copies, duplicates within
    /// a pool, one vector in several pools, single-model and single-class
    /// pools.
    fn check_merge_pools(
        vectors: &[SparseVector],
        pools: &[(Vec<ModelSpec>, bool)],
        config: CascadeConfig,
        strict: bool,
    ) {
        let copy = |v: &SparseVector| SparseVector::from_sorted_pairs(v.iter());
        let pools: Vec<Vec<KernelSvm>> = pools
            .iter()
            .map(|(models, one_class)| {
                models
                    .iter()
                    .map(|(svs, bias)| {
                        let svs = svs
                            .iter()
                            .map(|&(pick, shared, label, alpha)| {
                                let v = &vectors[pick % vectors.len()];
                                SupportVector {
                                    vector: if shared { v.clone() } else { copy(v) },
                                    label: label || *one_class,
                                    alpha,
                                }
                            })
                            .collect();
                        KernelSvm::from_support_vectors(svs, *bias)
                    })
                    .collect()
            })
            .collect();
        let cascade = CascadeSvm::new(config);
        let borrowed: Vec<Vec<&KernelSvm>> = pools.iter().map(|p| p.iter().collect()).collect();
        let merged = cascade.merge_pools(&borrowed);
        assert_eq!(merged.len(), pools.len());
        for (p, (pool, got)) in pools.iter().zip(&merged).enumerate() {
            let want = cascade.merge(pool);
            match (got, &want) {
                (None, None) => {}
                (Some(got), Some(want)) if strict => assert!(got.bit_eq(want), "pool {p}"),
                (Some(got), Some(want)) => assert!(eq_by_nan_class(got, want), "pool {p}"),
                _ => panic!("pool {p}: {} vs {}", got.is_some(), want.is_some()),
            }
        }
    }

    fn config(retrain: bool) -> CascadeConfig {
        CascadeConfig {
            retrain,
            ..CascadeConfig::default()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn merge_pools_equals_per_pool_merge_bit_for_bit(
            vectors in prop::collection::vec(wild::vector(8), 1..7),
            pools in prop::collection::vec(
                (prop::collection::vec(arb_model(), 0..5), any::<bool>()),
                0..6,
            ),
            retrain in any::<bool>(),
        ) {
            // NaN-free: the dot product is then bitwise symmetric, so every gathered
            // Gram block is the pool's own Gram matrix.
            let tame = |v: &SparseVector| {
                let pairs = v.iter().map(|(j, x)| (j, if x.is_nan() { 0.5 } else { x }));
                SparseVector::from_sorted_pairs(pairs)
            };
            let vectors: Vec<SparseVector> = vectors.iter().map(tame).collect();
            check_merge_pools(&vectors, &pools, config(retrain), true);
        }

        #[test]
        fn merge_pools_equals_per_pool_merge_by_nan_class_on_nan_inputs(
            vectors in prop::collection::vec(wild::vector(8), 1..7),
            pools in prop::collection::vec(
                (prop::collection::vec(arb_model(), 0..5), any::<bool>()),
                0..6,
            ),
        ) {
            check_merge_pools(&vectors, &pools, config(true), false);
        }
    }

    #[test]
    fn merge_pools_shares_one_vector_across_pools_and_keeps_pool_order() {
        let (models, xs, ys) = partitioned_models(4, 30, 26);
        let cascade = CascadeSvm::default();
        // Pools overlap in models (so in support vectors), one is a single
        // model and one is empty.
        let pools: Vec<Vec<&KernelSvm>> = vec![
            models.iter().collect(),
            vec![&models[2], &models[0]],
            vec![&models[3]],
            Vec::new(),
            models[1..].iter().collect(),
        ];
        let merged = cascade.merge_pools(&pools);
        for (pool, got) in pools.iter().zip(&merged) {
            let owned: Vec<KernelSvm> = pool.iter().map(|&m| m.clone()).collect();
            match (got, cascade.merge(&owned)) {
                (Some(got), Some(want)) => assert!(got.bit_eq(&want)),
                (got, want) => assert_eq!(got.is_none(), want.is_none()),
            }
        }
        assert!(merged[3].is_none());
        assert!(accuracy_on(merged[0].as_ref().unwrap(), &xs, &ys) > 0.95);
        // A merged model's vectors are the pooled ones, storage included.
        let sources: Vec<&SparseVector> = models
            .iter()
            .flat_map(|m| m.support_vectors().iter().map(|sv| &sv.vector))
            .collect();
        for sv in merged[0].as_ref().unwrap().support_vectors() {
            assert!(sources.iter().any(|v| v.shares_storage_with(&sv.vector)));
        }
    }
}
