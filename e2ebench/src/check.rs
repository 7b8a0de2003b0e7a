//! Correctness checks computed apart from the program: a plurality vote over the
//! generated claims, the generator's truth and source accuracies, and posterior
//! normalisation. Everything here works on names, so it needs nothing from the
//! library but the outputs under test.

use std::collections::HashMap;

/// A fit fails when its fused accuracy falls below the plurality vote's by more than
/// this.
pub const VOTE_MARGIN: f64 = 0.05;

/// A posterior fails when its mass differs from 1 by more than this.
pub const NORM_TOLERANCE: f64 = 1e-9;

/// One generated claim: `(source, object, value)` as indices into the name tables of
/// the instance that owns it.
pub type Claim = (u32, u32, u32);

/// The plurality value of every object, or `None` where the top count is tied (a tie
/// counts against the vote). Objects without claims get `None`.
pub fn plurality_vote(num_objects: usize, claims: &[Claim]) -> Vec<Option<u32>> {
    let mut counts: HashMap<(u32, u32), u32> = HashMap::new();
    for &(_, o, v) in claims {
        *counts.entry((o, v)).or_default() += 1;
    }
    let mut best: Vec<(u32, Option<u32>)> = vec![(0, None); num_objects];
    for ((o, v), n) in counts {
        let slot = &mut best[o as usize];
        if n > slot.0 {
            *slot = (n, Some(v));
        } else if n == slot.0 {
            slot.1 = None;
        }
    }
    best.into_iter().map(|(_, v)| v).collect()
}

/// The outcome of checking one fused assignment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitCheck {
    /// Share of evaluated objects whose fused value equals the truth.
    pub fused_accuracy: f64,
    /// Share of evaluated objects whose plurality vote equals the truth.
    pub vote_accuracy: f64,
    /// Objects evaluated.
    pub evaluated: usize,
}

impl FitCheck {
    /// Scores `fused` (object index → fused value index, `None` when the program left
    /// the object unassigned) against `truth` and `vote` over `eval_objects`.
    pub fn score(
        eval_objects: &[u32],
        truth: &[u32],
        vote: &[Option<u32>],
        fused: impl Fn(u32) -> Option<u32>,
    ) -> Self {
        let mut fused_hits = 0usize;
        let mut vote_hits = 0usize;
        for &o in eval_objects {
            let t = truth[o as usize];
            fused_hits += usize::from(fused(o) == Some(t));
            vote_hits += usize::from(vote[o as usize] == Some(t));
        }
        let n = eval_objects.len().max(1) as f64;
        Self {
            fused_accuracy: fused_hits as f64 / n,
            vote_accuracy: vote_hits as f64 / n,
            evaluated: eval_objects.len(),
        }
    }

    /// Whether the fit keeps up with the vote within [`VOTE_MARGIN`].
    pub fn passes(&self) -> bool {
        self.evaluated > 0 && self.fused_accuracy >= self.vote_accuracy - VOTE_MARGIN
    }
}

/// Whether a posterior is non-empty, finite everywhere and sums to 1.
pub fn posterior_ok(p: &[f64]) -> bool {
    !p.is_empty()
        && p.iter().all(|x| x.is_finite() && *x >= 0.0)
        && (p.iter().sum::<f64>() - 1.0).abs() <= NORM_TOLERANCE
}

/// Whether two batches of posteriors are bitwise identical.
pub fn bitwise_equal(a: &[Vec<f64>], b: &[Vec<f64>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// Mean absolute gap between estimated and true source accuracies, matching sources
/// by name. Sources the estimate does not name are skipped; returns `None` when no
/// source matches or an estimate is not a finite probability.
pub fn source_accuracy_mae<'a>(
    estimated: impl IntoIterator<Item = (&'a str, f64)>,
    true_accuracy: &HashMap<String, f64>,
) -> Option<f64> {
    let mut sum = 0.0;
    let mut n = 0usize;
    for (name, estimate) in estimated {
        if !(0.0..=1.0).contains(&estimate) {
            return None;
        }
        if let Some(t) = true_accuracy.get(name) {
            sum += (estimate - t).abs();
            n += 1;
        }
    }
    (n > 0).then(|| sum / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vote_counts_ties_against_itself() {
        let claims = [(0, 0, 1), (1, 0, 1), (2, 0, 0), (0, 1, 0), (1, 1, 1)];
        assert_eq!(plurality_vote(3, &claims), vec![Some(1), None, None]);
    }

    #[test]
    fn fit_fails_below_the_vote() {
        let truth = [0, 1, 1, 0];
        let vote = [Some(0), Some(1), None, Some(0)];
        let eval = [0, 1, 2, 3];
        let good = FitCheck::score(&eval, &truth, &vote, |o| Some(truth[o as usize]));
        assert_eq!(good.fused_accuracy, 1.0);
        assert_eq!(good.vote_accuracy, 0.75);
        assert!(good.passes());
        let swapped = FitCheck::score(&eval, &truth, &vote, |o| Some(1 - truth[o as usize]));
        assert_eq!(swapped.fused_accuracy, 0.0);
        assert!(!swapped.passes());
    }

    #[test]
    fn posterior_checks() {
        assert!(posterior_ok(&[0.25, 0.75]));
        assert!(!posterior_ok(&[]));
        assert!(!posterior_ok(&[0.5, 0.6]));
        assert!(!posterior_ok(&[f64::NAN, 1.0]));
        assert!(bitwise_equal(&[vec![0.5, 0.5]], &[vec![0.5, 0.5]]));
        assert!(!bitwise_equal(&[vec![0.5, 0.5]], &[vec![0.5, 0.5 + 1e-16]]));
    }

    #[test]
    fn accuracy_error_matches_by_name() {
        let truth: HashMap<String, f64> = [("a".to_string(), 0.9), ("b".to_string(), 0.6)]
            .into_iter()
            .collect();
        let mae = source_accuracy_mae([("b", 0.5), ("a", 0.8), ("zz", 0.1)], &truth).unwrap();
        assert!((mae - 0.1).abs() < 1e-12);
        assert_eq!(source_accuracy_mae([("a", 1.5)], &truth), None);
    }
}
