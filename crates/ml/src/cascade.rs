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

use crate::kernel::Kernel;
use crate::svm::{KernelSvm, KernelSvmTrainer, SupportVector};
use serde::{Deserialize, Serialize};
use textproc::SparseVector;

/// Configuration of the cascade merge.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CascadeConfig {
    /// Trainer used for the retraining step at each cascade level.
    pub trainer: KernelSvmTrainer,
    /// When `true` (the default) the pooled support vectors are retrained;
    /// when `false` the pooled SVs are used as-is with their original alphas
    /// (a cheaper but cruder merge, kept for the ablation experiment A2).
    pub retrain: bool,
    /// Maximum number of models merged per cascade step; larger groups are
    /// merged hierarchically. 0 means "merge everything in one step".
    pub fan_in: usize,
}

impl Default for CascadeConfig {
    fn default() -> Self {
        Self {
            trainer: KernelSvmTrainer::default(),
            retrain: true,
            fan_in: 0,
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

    /// Creates a combiner with default configuration but a specific kernel.
    pub fn with_kernel(kernel: Kernel) -> Self {
        Self {
            config: CascadeConfig {
                trainer: KernelSvmTrainer::with_kernel(kernel),
                ..Default::default()
            },
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CascadeConfig {
        &self.config
    }

    /// Merges several local models into one cascaded model.
    ///
    /// Returns `None` when `models` is empty or none of them carries a support
    /// vector.
    pub fn merge(&self, models: &[KernelSvm]) -> Option<KernelSvm> {
        if models.is_empty() {
            return None;
        }
        if models.len() == 1 {
            return Some(models[0].clone());
        }
        let fan_in = if self.config.fan_in == 0 {
            models.len()
        } else {
            self.config.fan_in.max(2)
        };
        let mut level: Vec<KernelSvm> = models.to_vec();
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(fan_in));
            for group in level.chunks(fan_in) {
                next.push(self.merge_group(group)?);
            }
            level = next;
        }
        level.pop()
    }

    fn merge_group(&self, models: &[KernelSvm]) -> Option<KernelSvm> {
        // Pooling copies `SupportVector`s, but their vectors share storage
        // (`SparseVector` clones are reference-count bumps), so a cascade
        // level never duplicates the underlying document entries.
        let pooled: Vec<SupportVector> = models
            .iter()
            .flat_map(|m| m.support_vectors().iter().cloned())
            .collect();
        if pooled.is_empty() {
            return None;
        }
        let kernel = self.config.trainer.kernel;
        if !self.config.retrain {
            // Keep the original dual coefficients, average the biases.
            let bias = models.iter().map(KernelSvm::bias).sum::<f64>() / models.len() as f64;
            // Normalize alphas by the number of models so votes stay bounded.
            let scale = 1.0 / models.len() as f64;
            let svs = pooled
                .into_iter()
                .map(|mut sv| {
                    sv.alpha *= scale;
                    sv
                })
                .collect();
            return Some(KernelSvm::from_support_vectors(svs, bias, kernel));
        }
        // Retrain on the pooled support vectors only when both classes are
        // present; otherwise fall back to the coefficient-preserving merge.
        let has_pos = pooled.iter().any(|sv| sv.label);
        let has_neg = pooled.iter().any(|sv| !sv.label);
        if !(has_pos && has_neg) {
            let bias = models.iter().map(KernelSvm::bias).sum::<f64>() / models.len() as f64;
            return Some(KernelSvm::from_support_vectors(pooled, bias, kernel));
        }
        let xs: Vec<SparseVector> = pooled.iter().map(|sv| sv.vector.clone()).collect();
        let ys: Vec<bool> = pooled.iter().map(|sv| sv.label).collect();
        Some(self.config.trainer.train(&xs, &ys))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::svm::{accuracy_on, BinaryClassifier};
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
        let trainer = KernelSvmTrainer::with_kernel(Kernel::Linear);
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
        let cascade = CascadeSvm::with_kernel(Kernel::Linear);
        let merged = cascade.merge(&models).expect("merge produces a model");
        assert!(accuracy_on(&merged, &xs, &ys) > 0.95);
    }

    #[test]
    fn merged_model_has_fewer_svs_than_pooled_training_data() {
        let (models, xs, _ys) = partitioned_models(4, 50, 22);
        let cascade = CascadeSvm::with_kernel(Kernel::Linear);
        let merged = cascade.merge(&models).unwrap();
        assert!(merged.num_support_vectors() < xs.len());
        assert!(merged.num_support_vectors() > 0);
    }

    #[test]
    fn merge_of_single_model_is_identity() {
        let (models, xs, _) = partitioned_models(1, 30, 23);
        let cascade = CascadeSvm::with_kernel(Kernel::Linear);
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
            trainer: KernelSvmTrainer::with_kernel(Kernel::Linear),
            retrain: false,
            fan_in: 0,
        });
        let merged = cascade.merge(&models).unwrap();
        assert!(accuracy_on(&merged, &xs, &ys) > 0.85);
    }

    #[test]
    fn hierarchical_fan_in_matches_flat_merge_quality() {
        let (models, xs, ys) = partitioned_models(8, 25, 25);
        let flat = CascadeSvm::with_kernel(Kernel::Linear)
            .merge(&models)
            .unwrap();
        let hier = CascadeSvm::new(CascadeConfig {
            trainer: KernelSvmTrainer::with_kernel(Kernel::Linear),
            retrain: true,
            fan_in: 2,
        })
        .merge(&models)
        .unwrap();
        let acc_flat = accuracy_on(&flat, &xs, &ys);
        let acc_hier = accuracy_on(&hier, &xs, &ys);
        assert!(acc_hier > acc_flat - 0.1, "flat {acc_flat} hier {acc_hier}");
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
        let m1 = KernelSvm::from_support_vectors(vec![sv(1.0)], 0.1, Kernel::Linear);
        let m2 = KernelSvm::from_support_vectors(vec![sv(2.0)], 0.3, Kernel::Linear);
        let merged = CascadeSvm::with_kernel(Kernel::Linear)
            .merge(&[m1, m2])
            .unwrap();
        assert_eq!(merged.num_support_vectors(), 2);
        assert!(merged.predict(&SparseVector::from_pairs([(0, 1.5)])));
    }
}
