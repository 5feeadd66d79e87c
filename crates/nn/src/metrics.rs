//! Evaluation metrics: BLEU score and mean average precision, which the
//! paper's Tables 2 and 3 report (Table 1's top-1 accuracy is
//! `adagp_core::trainer::evaluate_accuracy`).

use crate::data::BoxLabel;

/// Corpus-level BLEU-4 with uniform n-gram weights and brevity penalty —
/// the metric reported for the Transformer (Table 2).
///
/// `hypotheses` and `references` are token-id sequences; the score is in
/// `[0, 100]`.
///
/// # Panics
///
/// Panics if the corpora have different lengths.
pub fn bleu(hypotheses: &[Vec<usize>], references: &[Vec<usize>]) -> f32 {
    assert_eq!(
        hypotheses.len(),
        references.len(),
        "bleu: corpus size mismatch"
    );
    if hypotheses.is_empty() {
        return 0.0;
    }
    let max_n = 4;
    let mut match_counts = [0usize; 4];
    let mut hyp_counts = [0usize; 4];
    let mut hyp_len = 0usize;
    let mut ref_len = 0usize;

    for (hyp, re) in hypotheses.iter().zip(references.iter()) {
        hyp_len += hyp.len();
        ref_len += re.len();
        for n in 1..=max_n {
            if hyp.len() < n {
                continue;
            }
            let hyp_ngrams = ngram_counts(hyp, n);
            let ref_ngrams = ngram_counts(re, n);
            for (gram, &count) in &hyp_ngrams {
                let clipped = count.min(*ref_ngrams.get(gram).unwrap_or(&0));
                match_counts[n - 1] += clipped;
            }
            hyp_counts[n - 1] += hyp.len() - n + 1;
        }
    }

    let mut log_precision_sum = 0.0f64;
    for n in 0..max_n {
        if hyp_counts[n] == 0 || match_counts[n] == 0 {
            return 0.0;
        }
        log_precision_sum += (match_counts[n] as f64 / hyp_counts[n] as f64).ln();
    }
    let geo_mean = (log_precision_sum / max_n as f64).exp();
    let bp = if hyp_len >= ref_len {
        1.0
    } else {
        (1.0 - ref_len as f64 / hyp_len.max(1) as f64).exp()
    };
    (100.0 * bp * geo_mean) as f32
}

fn ngram_counts(seq: &[usize], n: usize) -> std::collections::HashMap<&[usize], usize> {
    let mut map = std::collections::HashMap::new();
    for window in seq.windows(n) {
        *map.entry(window).or_insert(0) += 1;
    }
    map
}

/// A scored detection for mAP computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// Index of the image this detection belongs to.
    pub image: usize,
    /// Predicted box and class.
    pub label: BoxLabel,
    /// Confidence score.
    pub score: f32,
}

/// Mean average precision at the given IoU threshold (paper uses 0.5),
/// averaged over classes — the VOC-style metric of Table 3.
///
/// `ground_truth[i]` is the single true box of image `i` (the synthetic
/// dataset has one object per image).
pub fn mean_average_precision(
    detections: &[Detection],
    ground_truth: &[BoxLabel],
    iou_threshold: f32,
    num_classes: usize,
) -> f32 {
    if num_classes == 0 {
        return 0.0;
    }
    let mut ap_sum = 0.0f32;
    let mut classes_with_gt = 0usize;
    for class in 0..num_classes {
        let gt_images: Vec<usize> = ground_truth
            .iter()
            .enumerate()
            .filter(|(_, g)| g.class == class)
            .map(|(i, _)| i)
            .collect();
        if gt_images.is_empty() {
            continue;
        }
        classes_with_gt += 1;
        let mut dets: Vec<&Detection> = detections
            .iter()
            .filter(|d| d.label.class == class)
            .collect();
        dets.sort_by(|a, b| b.score.total_cmp(&a.score));
        let mut matched = vec![false; ground_truth.len()];
        let mut tp = 0usize;
        let mut fp = 0usize;
        let mut precisions_at_recall = Vec::new();
        for d in dets {
            let img = d.image;
            let is_match = img < ground_truth.len()
                && !matched[img]
                && ground_truth[img].class == class
                && d.label.iou(&ground_truth[img]) >= iou_threshold;
            if is_match {
                matched[img] = true;
                tp += 1;
            } else {
                fp += 1;
            }
            precisions_at_recall.push((
                tp as f32 / gt_images.len() as f32,
                tp as f32 / (tp + fp) as f32,
            ));
        }
        // 11-point interpolated AP (classic VOC).
        let mut ap = 0.0f32;
        for i in 0..=10 {
            let r = i as f32 / 10.0;
            let p = precisions_at_recall
                .iter()
                .filter(|(recall, _)| *recall >= r)
                .map(|(_, p)| *p)
                .fold(0.0f32, f32::max);
            ap += p / 11.0;
        }
        ap_sum += ap;
    }
    if classes_with_gt == 0 {
        0.0
    } else {
        ap_sum / classes_with_gt as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bleu_perfect_match_is_100() {
        let corpus = vec![vec![5, 6, 7, 8, 9], vec![10, 11, 12, 13]];
        let score = bleu(&corpus, &corpus);
        assert!((score - 100.0).abs() < 1e-3, "score {score}");
    }

    #[test]
    fn bleu_no_overlap_is_zero() {
        let hyp = vec![vec![5, 6, 7, 8]];
        let re = vec![vec![9, 10, 11, 12]];
        assert_eq!(bleu(&hyp, &re), 0.0);
    }

    #[test]
    fn bleu_partial_overlap_in_between() {
        let hyp = vec![vec![5, 6, 7, 8, 20, 21]];
        let re = vec![vec![5, 6, 7, 8, 9, 10]];
        let s = bleu(&hyp, &re);
        assert!(s > 0.0 && s < 100.0, "score {s}");
    }

    #[test]
    fn bleu_brevity_penalty_reduces_short_hyps() {
        let re = vec![vec![5, 6, 7, 8, 9, 10, 11, 12]];
        let full = bleu(&re, &re);
        let short = bleu([re[0][..5].to_vec()].as_ref(), &re);
        assert!(short < full);
    }

    fn make_box(class: usize, cx: f32) -> BoxLabel {
        BoxLabel {
            class,
            cx,
            cy: 0.5,
            w: 0.3,
            h: 0.3,
        }
    }

    #[test]
    fn map_perfect_detections() {
        let gt = vec![make_box(0, 0.3), make_box(1, 0.7)];
        let dets = vec![
            Detection {
                image: 0,
                label: gt[0],
                score: 0.9,
            },
            Detection {
                image: 1,
                label: gt[1],
                score: 0.8,
            },
        ];
        let map = mean_average_precision(&dets, &gt, 0.5, 2);
        assert!((map - 1.0).abs() < 1e-5, "map {map}");
    }

    #[test]
    fn map_wrong_class_scores_zero() {
        let gt = vec![make_box(0, 0.3)];
        let mut wrong = gt[0];
        wrong.class = 1;
        let dets = vec![Detection {
            image: 0,
            label: wrong,
            score: 0.9,
        }];
        assert_eq!(mean_average_precision(&dets, &gt, 0.5, 2), 0.0);
    }

    #[test]
    fn map_poor_localization_scores_zero() {
        let gt = vec![make_box(0, 0.2)];
        let off = make_box(0, 0.8); // disjoint
        let dets = vec![Detection {
            image: 0,
            label: off,
            score: 0.9,
        }];
        assert_eq!(mean_average_precision(&dets, &gt, 0.5, 1), 0.0);
    }

    #[test]
    fn map_half_right() {
        let gt = vec![make_box(0, 0.3), make_box(0, 0.7)];
        let dets = vec![Detection {
            image: 0,
            label: gt[0],
            score: 0.9,
        }];
        let map = mean_average_precision(&dets, &gt, 0.5, 1);
        // Recall tops out at 0.5 with precision 1 -> 11-pt AP ≈ 6/11.
        assert!((map - 6.0 / 11.0).abs() < 1e-4, "map {map}");
    }
}
