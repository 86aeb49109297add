//! Job-name similarity: Levenshtein distance \[53\] and the bucketization the
//! QSSF feature pipeline uses to turn "extremely sparse and high-dimensional"
//! job names into dense numeric categories (§4.2.2).
//!
//! Distances come from one bit-parallel kernel (Myers 1999, in Hyyrö's
//! formulation for edit distance). The shorter string's per-character match
//! masks are built once; each character of the other string then advances
//! one 64-bit column of the DP table in a few word operations, so a
//! comparison costs O(len) instead of O(m·n). [`NameBuckets`] and the
//! rolling estimator build one mask set per new stem and reuse it across
//! every comparison. Strings whose shorter side exceeds 64 chars use the
//! two-row DP, which is also the kernel's test oracle.

use std::collections::HashMap;

/// Levenshtein edit distance between two strings, counted in chars.
pub fn levenshtein(a: &str, b: &str) -> usize {
    let (short, long) = if a.chars().count() <= b.chars().count() {
        (a, b)
    } else {
        (b, a)
    };
    match Masks::new(short) {
        Some(masks) => masks.distance(long),
        None => levenshtein_dp(short, long),
    }
}

/// Levenshtein distance normalized by the longer length, in \[0, 1\].
pub fn normalized_distance(a: &str, b: &str) -> f64 {
    ratio(levenshtein(a, b), a.chars().count().max(b.chars().count()))
}

/// `distance / max_len`, with two empty strings at distance 0.
fn ratio(distance: usize, max_len: usize) -> f64 {
    if max_len == 0 {
        return 0.0;
    }
    distance as f64 / max_len as f64
}

/// Two-row DP, O(min(a,b)) memory: the kernel for strings whose shorter
/// side has more than 64 chars, and the oracle the bit-parallel kernel is
/// tested against.
fn levenshtein_dp(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    // Keep the shorter string in the inner loop.
    let (short, long) = if a.len() <= b.len() {
        (&a, &b)
    } else {
        (&b, &a)
    };
    if short.is_empty() {
        return long.len();
    }
    let mut prev: Vec<usize> = (0..=short.len()).collect();
    let mut curr = vec![0usize; short.len() + 1];
    for (i, &lc) in long.iter().enumerate() {
        curr[0] = i + 1;
        for (j, &sc) in short.iter().enumerate() {
            let cost = usize::from(lc != sc);
            curr[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(curr[j] + 1);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[short.len()]
}

/// Per-character match masks of a pattern of at most 64 chars: bit `i` of
/// a char's mask is set where the pattern's `i`-th char is that char.
#[derive(Debug)]
struct Masks {
    ascii: [u64; 128],
    /// Masks of the pattern's non-ASCII chars (few in job names).
    other: Vec<(char, u64)>,
    /// Pattern length in chars.
    len: usize,
}

impl Masks {
    /// The pattern's masks, or `None` when it has more than 64 chars.
    fn new(pattern: &str) -> Option<Masks> {
        let mut masks = Masks {
            ascii: [0; 128],
            other: Vec::new(),
            len: 0,
        };
        for (i, c) in pattern.chars().enumerate() {
            if i == 64 {
                return None;
            }
            let bit = 1u64 << i;
            if c.is_ascii() {
                masks.ascii[c as usize] |= bit;
            } else if let Some((_, m)) = masks.other.iter_mut().find(|(o, _)| *o == c) {
                *m |= bit;
            } else {
                masks.other.push((c, bit));
            }
            masks.len = i + 1;
        }
        Some(masks)
    }

    fn mask(&self, c: char) -> u64 {
        if c.is_ascii() {
            self.ascii[c as usize]
        } else {
            self.other
                .iter()
                .find(|(o, _)| *o == c)
                .map_or(0, |&(_, m)| m)
        }
    }

    /// Edit distance from the pattern to `text`. `pv`/`mv` hold the +1/−1
    /// vertical deltas of the current DP column, one bit per pattern char;
    /// `score` tracks the column's last cell. Bits above the pattern
    /// length carry garbage that never reaches a lower bit: additions carry
    /// and shifts move only upward.
    fn distance(&self, text: &str) -> usize {
        if self.len == 0 {
            return text.chars().count();
        }
        let last = 1u64 << (self.len - 1);
        let (mut pv, mut mv) = (!0u64, 0u64);
        let mut score = self.len;
        for c in text.chars() {
            let eq = self.mask(c);
            let xv = eq | mv;
            let xh = ((eq & pv).wrapping_add(pv) ^ pv) | eq;
            let ph = mv | !(xh | pv);
            let mh = pv & xh;
            if ph & last != 0 {
                score += 1;
            } else if mh & last != 0 {
                score -= 1;
            }
            // Row 0 of the table is 0, 1, 2, …: its horizontal delta is +1.
            let ph = (ph << 1) | 1;
            let mh = mh << 1;
            pv = mh | !(xv | ph);
            mv = ph & xv;
        }
        score
    }
}

/// A string prepared for repeated distance queries: its match masks are
/// built once (a pattern over 64 chars keeps none and defers to
/// [`levenshtein`]). Every distance equals the free functions' bit for bit.
#[derive(Debug)]
pub(crate) struct Pattern<'a> {
    text: &'a str,
    /// Length of `text` in chars.
    len: usize,
    masks: Option<Masks>,
}

impl<'a> Pattern<'a> {
    pub(crate) fn new(text: &'a str) -> Self {
        Pattern {
            text,
            len: text.chars().count(),
            masks: Masks::new(text),
        }
    }

    /// [`levenshtein`] from this pattern to `other`.
    fn distance(&self, other: &str) -> usize {
        match &self.masks {
            Some(masks) => masks.distance(other),
            None => levenshtein(self.text, other),
        }
    }

    /// [`normalized_distance`] from this pattern to `other`.
    pub(crate) fn normalized_distance(&self, other: &str) -> f64 {
        ratio(self.distance(other), self.len.max(other.chars().count()))
    }
}

/// Strip trailing run/sweep decorations (`_12`, `_run3`, `_lr5`) so
/// resubmissions of the same experiment normalize to a common stem.
pub fn strip_run_suffix(name: &str) -> &str {
    let mut s = name;
    loop {
        let Some(pos) = s.rfind('_') else {
            return s;
        };
        let tail = &s[pos + 1..];
        let is_decoration = !tail.is_empty()
            && (tail.chars().all(|c| c.is_ascii_digit())
                || (tail.starts_with("run") && tail[3..].chars().all(|c| c.is_ascii_digit()))
                || (tail.starts_with("lr") && tail[2..].chars().all(|c| c.is_ascii_digit())));
        if is_decoration {
            s = &s[..pos];
        } else {
            return s;
        }
    }
}

/// Incremental name bucketizer: names whose stems are within
/// `max_distance` (normalized Levenshtein) of a bucket representative share
/// that bucket id.
#[derive(Debug, Clone)]
pub struct NameBuckets {
    max_distance: f64,
    representatives: Vec<String>,
    cache: HashMap<String, u32>,
}

impl NameBuckets {
    /// Create a bucketizer with the given normalized-distance threshold
    /// (the paper clusters "similar" names; 0.25 works well for
    /// sweep-style suffixes).
    pub fn new(max_distance: f64) -> Self {
        assert!((0.0..=1.0).contains(&max_distance));
        NameBuckets {
            max_distance,
            representatives: Vec::new(),
            cache: HashMap::new(),
        }
    }

    /// Bucket id for a job name (creates a new bucket when nothing is
    /// similar enough). Deterministic in insertion order. Cache hits are
    /// allocation-free.
    pub fn bucket(&mut self, name: &str) -> u32 {
        let stem = strip_run_suffix(name);
        if let Some(&id) = self.cache.get(stem) {
            return id;
        }
        let stem = stem.to_string();
        // Linear scan over representatives in insertion order, against one
        // mask set of the stem; short-circuit on length bounds
        // (|len(a) - len(b)| <= d * max_len is necessary for a match).
        let pattern = Pattern::new(&stem);
        let stem_len = pattern.len;
        let mut found = None;
        for (id, rep) in self.representatives.iter().enumerate() {
            let rep_len = rep.chars().count();
            let max_len = rep_len.max(stem_len);
            if (rep_len as i64 - stem_len as i64).unsigned_abs() as f64
                > self.max_distance * max_len as f64
            {
                continue;
            }
            if ratio(pattern.distance(rep), max_len) <= self.max_distance {
                found = Some(id as u32);
                break;
            }
        }
        let id = found.unwrap_or_else(|| {
            self.representatives.push(stem.clone());
            (self.representatives.len() - 1) as u32
        });
        self.cache.insert(stem, id);
        id
    }

    /// Number of buckets created so far.
    pub fn num_buckets(&self) -> usize {
        self.representatives.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_distances() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("same", "same"), 0);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
    }

    #[test]
    fn distance_properties() {
        let words = ["train_resnet50", "train_resnet18", "eval_bert", ""];
        for a in words {
            for b in words {
                // Symmetry.
                assert_eq!(levenshtein(a, b), levenshtein(b, a));
                // Identity.
                if a == b {
                    assert_eq!(levenshtein(a, b), 0);
                }
                // Triangle inequality against every third word.
                for c in words {
                    assert!(levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c));
                }
            }
        }
    }

    #[test]
    fn bit_parallel_kernel_matches_the_dp() {
        // Random strings over a small alphabet (so matches are common)
        // with non-ASCII chars, at the lengths around the 64-char word:
        // every kernel path must agree with the two-row DP.
        use rand::{Rng, SeedableRng};
        let alphabet: Vec<char> = "ab_c1é中".chars().collect();
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(53);
        let mut word = |len: usize| -> String {
            (0..len)
                .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
                .collect()
        };
        let lens = [0, 1, 2, 5, 17, 40, 63, 64, 65, 90];
        for &la in &lens {
            for &lb in &lens {
                for _ in 0..6 {
                    let (a, b) = (word(la), word(lb));
                    let want = levenshtein_dp(&a, &b);
                    assert_eq!(levenshtein(&a, &b), want, "{a:?} vs {b:?}");
                    assert_eq!(Pattern::new(&a).distance(&b), want, "{a:?} vs {b:?}");
                    assert_eq!(
                        Pattern::new(&a).normalized_distance(&b).to_bits(),
                        normalized_distance(&a, &b).to_bits()
                    );
                }
            }
        }
        // Both strings longer than 64 chars take the DP on both paths.
        let (a, b) = (word(70), word(80));
        assert_eq!(levenshtein(&a, &b), levenshtein_dp(&a, &b));
        assert_eq!(Pattern::new(&a).distance(&b), levenshtein_dp(&a, &b));
        // Repeated non-ASCII chars share one mask entry.
        assert_eq!(levenshtein("中中é", "é中中"), 2);
        assert_eq!(levenshtein("é", ""), 1);
    }

    #[test]
    fn normalized_bounds() {
        assert_eq!(normalized_distance("", ""), 0.0);
        assert_eq!(normalized_distance("abc", "abc"), 0.0);
        assert_eq!(normalized_distance("abc", "xyz"), 1.0);
        let d = normalized_distance("train_resnet50_run1", "train_resnet50_run2");
        assert!(d < 0.1);
    }

    #[test]
    fn strips_run_decorations() {
        assert_eq!(strip_run_suffix("train_resnet50_3"), "train_resnet50");
        assert_eq!(strip_run_suffix("train_resnet50_run12"), "train_resnet50");
        assert_eq!(strip_run_suffix("train_resnet50_lr5_7"), "train_resnet50");
        assert_eq!(strip_run_suffix("train_resnet50"), "train_resnet50");
        assert_eq!(strip_run_suffix("noxunderscore"), "noxunderscore");
    }

    #[test]
    fn buckets_group_resubmissions() {
        let mut b = NameBuckets::new(0.25);
        let a1 = b.bucket("train_resnet50_imagenet_1");
        let a2 = b.bucket("train_resnet50_imagenet_412");
        let a3 = b.bucket("train_resnet50_imagenet_lr3_9");
        assert_eq!(a1, a2);
        assert_eq!(a1, a3);
        let other = b.bucket("extract_frames_kinetics400_2");
        assert_ne!(a1, other);
        assert_eq!(b.num_buckets(), 2);
    }

    #[test]
    fn near_names_share_buckets() {
        let mut b = NameBuckets::new(0.25);
        let x = b.bucket("train_resnet50_imagenet");
        let y = b.bucket("train_resnet56_imagenet"); // 1 edit of 22 chars
        assert_eq!(x, y);
    }

    #[test]
    fn cache_is_consistent() {
        let mut b = NameBuckets::new(0.2);
        let first = b.bucket("eval_bert_base_wmt14_5");
        for _ in 0..10 {
            assert_eq!(b.bucket("eval_bert_base_wmt14_5"), first);
        }
    }
}
