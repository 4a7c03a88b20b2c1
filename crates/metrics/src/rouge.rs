//! ROUGE-L: longest-common-subsequence based generation quality.
//!
//! The paper reports ROUGE-L for the Dolly instruction-following workload
//! with a target value of 0.5. The reproduction computes ROUGE-L over token
//! id sequences (the synthetic datasets have no natural-language surface
//! form), which is exactly how the metric behaves on tokenized text.

/// Computes the ROUGE-L F1 score between a candidate and a reference token
/// sequence.
///
/// ROUGE-L is based on the longest common subsequence (LCS):
/// `precision = LCS / |candidate|`, `recall = LCS / |reference|`, and the
/// returned value is their harmonic mean. Returns 0 when either sequence is
/// empty.
pub fn rouge_l(candidate: &[u32], reference: &[u32]) -> f32 {
    if candidate.is_empty() || reference.is_empty() {
        return 0.0;
    }
    let lcs = lcs_length(candidate, reference) as f32;
    if lcs == 0.0 {
        return 0.0;
    }
    let precision = lcs / candidate.len() as f32;
    let recall = lcs / reference.len() as f32;
    2.0 * precision * recall / (precision + recall)
}

/// Length of the longest common subsequence, O(n·m) dynamic programming with
/// a rolling row.
fn lcs_length(a: &[u32], b: &[u32]) -> usize {
    if a.is_empty() || b.is_empty() {
        return 0;
    }
    let mut prev = vec![0usize; b.len() + 1];
    let mut cur = vec![0usize; b.len() + 1];
    for &ai in a {
        for (j, &bj) in b.iter().enumerate() {
            cur[j + 1] = if ai == bj {
                prev[j] + 1
            } else {
                prev[j + 1].max(cur[j])
            };
        }
        std::mem::swap(&mut prev, &mut cur);
        cur.fill(0);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_sequences_score_one() {
        let s = vec![1, 2, 3, 4, 5];
        assert!((rouge_l(&s, &s) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn disjoint_sequences_score_zero() {
        assert_eq!(rouge_l(&[1, 2, 3], &[4, 5, 6]), 0.0);
    }

    #[test]
    fn empty_sequences_score_zero() {
        assert_eq!(rouge_l(&[], &[1, 2]), 0.0);
        assert_eq!(rouge_l(&[1, 2], &[]), 0.0);
        assert_eq!(rouge_l(&[], &[]), 0.0);
    }

    #[test]
    fn partial_overlap_known_value() {
        // candidate = [1,2,3,4], reference = [1,3,5]; LCS = [1,3] length 2.
        // precision = 2/4, recall = 2/3, F1 = 2*0.5*0.6667/1.1667 = 0.5714.
        let score = rouge_l(&[1, 2, 3, 4], &[1, 3, 5]);
        assert!((score - 0.5714).abs() < 1e-3, "score {score}");
    }

    #[test]
    fn subsequence_order_matters() {
        // Same multiset, different order -> LCS shrinks.
        let a = rouge_l(&[1, 2, 3], &[1, 2, 3]);
        let b = rouge_l(&[3, 2, 1], &[1, 2, 3]);
        assert!(a > b);
    }

    #[test]
    fn symmetric_in_f1() {
        let x = vec![1, 2, 3, 4, 5, 6];
        let y = vec![2, 4, 6, 8];
        assert!((rouge_l(&x, &y) - rouge_l(&y, &x)).abs() < 1e-6);
    }

    #[test]
    fn lcs_known_values() {
        assert_eq!(lcs_length(&[1, 3, 5, 7], &[1, 2, 3, 4, 5]), 3);
        assert_eq!(lcs_length(&[1], &[1]), 1);
        assert_eq!(lcs_length(&[], &[1]), 0);
    }
}
