//! The single, memoized source of paper-scale layer shapes: one
//! derivation per (model, input scale), cached for the process lifetime
//! and shared by the sweep runner and the whole bench harness.

use adagp_nn::models::shapes::{model_shapes, InputScale, LayerShape};
use adagp_nn::models::CnnModel;
use adagp_runtime::Memo;
use std::sync::{Arc, OnceLock};

/// Paper-scale shapes for `model` at `scale`, derived once per process
/// (outside the cache's lock) and shared thereafter (cheap to clone:
/// `Arc`).
pub fn cached_shapes(model: CnnModel, scale: InputScale) -> Arc<Vec<LayerShape>> {
    static CACHE: OnceLock<Memo<(CnnModel, InputScale), Arc<Vec<LayerShape>>>> = OnceLock::new();
    let cache = CACHE.get_or_init(Memo::default);
    cache
        .get_or_compute(&(model, scale), || Arc::new(model_shapes(model, scale)))
        .0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::DatasetScale;

    #[test]
    fn cache_returns_the_same_allocation() {
        let a = cached_shapes(CnnModel::Vgg13, InputScale::Cifar);
        let b = cached_shapes(CnnModel::Vgg13, InputScale::Cifar);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the cache");
        assert_eq!(*a, model_shapes(CnnModel::Vgg13, InputScale::Cifar));
    }

    #[test]
    fn datasets_of_one_scale_share_a_table() {
        // CIFAR10 and CIFAR100 share the 32² scale, hence the table.
        let scale = |d: DatasetScale| cached_shapes(CnnModel::Vgg13, d.input_scale());
        assert!(Arc::ptr_eq(
            &scale(DatasetScale::Cifar10),
            &scale(DatasetScale::Cifar100)
        ));
    }

    #[test]
    fn scales_are_cached_separately() {
        let cifar = cached_shapes(CnnModel::ResNet50, InputScale::Cifar);
        let imagenet = cached_shapes(CnnModel::ResNet50, InputScale::ImageNet);
        assert!(!Arc::ptr_eq(&cifar, &imagenet));
        assert_ne!(*cifar, *imagenet);
    }
}
