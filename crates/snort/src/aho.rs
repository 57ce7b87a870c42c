//! Aho–Corasick multi-pattern string matching, built from scratch
//! (Aho & Corasick, CACM 1975 — the paper's reference \[41\]).
//!
//! One automaton serves exact and `nocase` patterns alike. It is built
//! over the patterns with ASCII case folded away, and its alphabet is
//! compressed: a 256-entry map sends each byte to a *class*, the two
//! cases of a letter share one, and every byte that occurs in no pattern
//! falls into class 0. A row of the transition table is therefore as
//! wide as the number of distinct pattern bytes (rounded up to a power
//! of two), not 256. A case-sensitive pattern reported by the folded
//! automaton is confirmed against its original bytes at the reported end
//! offset before it counts as a match — the discipline Snort's own
//! multi-pattern search engine uses — so [`AhoCorasick::find_all`] is
//! exact.
//!
//! The table stores state ids pre-multiplied by the row width, with bit 0
//! set on every transition *into* a state that has outputs. Scanning a
//! byte is one class lookup, one add and one table load; the output lists
//! are read only where a pattern ends.
//!
//! Long haystacks are walked in `LANES` lanes advanced by one loop, so
//! the load-to-use chains of the lanes overlap. Each lane after the first
//! starts at the root `max_pattern_len − 1` bytes before the end of the
//! previous lane's stretch, which is enough for it to see every
//! occurrence that ends in its own stretch; each lane reports only
//! occurrences that end there, so the lanes together report exactly what
//! a single walk reports.

/// A match: pattern `pattern` ends at byte offset `end` (exclusive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Match {
    /// Index of the matched pattern (insertion order).
    pub pattern: usize,
    /// Exclusive end offset in the haystack.
    pub end: usize,
}

/// Lanes a long haystack is walked in.
pub(crate) const LANES: usize = 4;

/// A haystack is split into lanes only when every lane gets at least this
/// many bytes of its own on top of its warm-up.
const MIN_LANE_STRETCH: usize = 16;

const NONE: u32 = u32::MAX;

/// Bit 0 of a transition word: the target state has outputs. State ids
/// are multiples of the (even) row width, so the bit is free.
const HAS_OUTPUT: u32 = 1;

/// Where a pattern's original bytes live, and whether a folded match
/// still has to be compared against them.
#[derive(Debug, Clone)]
struct Pattern {
    start: u32,
    len: u32,
    /// Case-sensitive and contains a letter.
    confirm: bool,
}

/// A compiled Aho–Corasick automaton.
#[derive(Debug, Clone)]
pub struct AhoCorasick {
    /// Byte → class; `A`–`Z` map to the class of `a`–`z`.
    classes: [u8; 256],
    class_count: usize,
    /// log2 of the row width.
    shift: u32,
    /// `delta[state_id + class]` → next state id, `| HAS_OUTPUT`.
    delta: Vec<u32>,
    /// Pattern indices terminating at each state (flattened).
    out_start: Vec<u32>,
    out_items: Vec<u32>,
    patterns: Vec<Pattern>,
    /// Original bytes of all patterns, concatenated.
    pattern_bytes: Vec<u8>,
    max_pattern_len: usize,
}

impl AhoCorasick {
    /// Builds an automaton over `(bytes, nocase)` patterns; a pattern's
    /// index is its position in the iteration.
    ///
    /// # Panics
    ///
    /// Panics if any pattern is empty or if the table would need state ids
    /// beyond `u32`.
    pub fn new<'a>(patterns: impl IntoIterator<Item = (&'a [u8], bool)>) -> Self {
        let mut pattern_bytes = Vec::new();
        let mut table = Vec::new();
        for (bytes, nocase) in patterns {
            assert!(!bytes.is_empty(), "empty patterns are not allowed");
            table.push(Pattern {
                start: pattern_bytes.len() as u32,
                len: bytes.len() as u32,
                confirm: !nocase && bytes.iter().any(u8::is_ascii_alphabetic),
            });
            pattern_bytes.extend_from_slice(bytes);
        }
        let original =
            |p: &Pattern| &pattern_bytes[p.start as usize..p.start as usize + p.len as usize];

        // --- Byte classes -------------------------------------------------
        // At most 230 distinct folded bytes, so classes fit a `u8`.
        let mut classes = [0u8; 256];
        let mut class_count = 1usize;
        for &b in &pattern_bytes {
            let folded = b.to_ascii_lowercase() as usize;
            if classes[folded] == 0 {
                classes[folded] = class_count as u8;
                class_count += 1;
            }
        }
        for upper in b'A'..=b'Z' {
            classes[upper as usize] = classes[upper.to_ascii_lowercase() as usize];
        }
        let stride = class_count.next_power_of_two().max(2);
        let shift = stride.trailing_zeros();

        // --- Trie construction -------------------------------------------
        let mut goto: Vec<u32> = vec![NONE; stride];
        let mut outputs: Vec<Vec<u32>> = vec![Vec::new()];
        for (pid, pat) in table.iter().enumerate() {
            let mut state = 0usize;
            for &b in original(pat) {
                let slot = state * stride + classes[b as usize] as usize;
                if goto[slot] == NONE {
                    goto[slot] = outputs.len() as u32;
                    goto.resize(goto.len() + stride, NONE);
                    outputs.push(Vec::new());
                }
                state = goto[slot] as usize;
            }
            outputs[state].push(pid as u32);
        }
        let n = outputs.len();
        assert!(
            (n as u64) << shift <= u64::from(u32::MAX),
            "too many automaton states"
        );

        // --- BFS: failure links and automaton completion ------------------
        let mut fail = vec![0u32; n];
        let mut queue = std::collections::VecDeque::new();
        for slot in &mut goto[..stride] {
            match *slot {
                NONE => *slot = 0,
                s => queue.push_back(s as usize),
            }
        }
        while let Some(s) = queue.pop_front() {
            let f = fail[s] as usize;
            for c in 0..stride {
                let via_fail = goto[f * stride + c];
                match goto[s * stride + c] {
                    NONE => goto[s * stride + c] = via_fail,
                    t => {
                        let t = t as usize;
                        fail[t] = via_fail;
                        // Merge outputs from the failure target.
                        let inherited = outputs[via_fail as usize].clone();
                        outputs[t].extend(inherited);
                        queue.push_back(t);
                    }
                }
            }
        }

        // --- Flatten ------------------------------------------------------
        let delta = goto
            .iter()
            .map(|&t| t << shift | u32::from(!outputs[t as usize].is_empty()))
            .collect();
        let mut out_start = Vec::with_capacity(n + 1);
        let mut out_items = Vec::new();
        out_start.push(0u32);
        for o in &outputs {
            out_items.extend_from_slice(o);
            out_start.push(out_items.len() as u32);
        }

        AhoCorasick {
            classes,
            class_count,
            shift,
            delta,
            out_start,
            out_items,
            max_pattern_len: table.iter().map(|p| p.len as usize).max().unwrap_or(0),
            patterns: table,
            pattern_bytes,
        }
    }

    /// Number of patterns.
    pub fn pattern_count(&self) -> usize {
        self.patterns.len()
    }

    /// Number of automaton states.
    pub fn state_count(&self) -> usize {
        self.delta.len() >> self.shift
    }

    /// Number of byte classes, including class 0 for bytes in no pattern.
    /// Rows of the transition table are this wide, rounded up to a power
    /// of two.
    pub fn class_count(&self) -> usize {
        self.class_count
    }

    /// Length of the longest pattern.
    pub fn max_pattern_len(&self) -> usize {
        self.max_pattern_len
    }

    /// Heap and table footprint in bytes (for EPC accounting): the class
    /// map, the transition table, the output lists and the pattern bytes
    /// kept for the case-sensitive confirm.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.classes.len()
            + (self.delta.len() + self.out_start.len() + self.out_items.len()) * size_of::<u32>()
            + self.patterns.len() * size_of::<Pattern>()
            + self.pattern_bytes.len()
    }

    /// Finds all matches in `haystack`, ordered by end offset, then
    /// pattern index.
    pub fn find_all(&self, haystack: &[u8]) -> Vec<Match> {
        let mut matches = Vec::new();
        self.walk::<LANES>(haystack, |m| matches.push(m));
        matches.sort_unstable_by_key(|m| (m.end, m.pattern));
        matches
    }

    /// Calls `on_match` once per occurrence of a pattern in `haystack`,
    /// in no particular order, walking it in `N` lanes — or in one when
    /// it is too short to give every lane a stretch of its own.
    // `i` and `k` index the N lanes' parallel arrays; no one iterator does.
    #[allow(clippy::needless_range_loop)]
    pub(crate) fn walk<const N: usize>(&self, haystack: &[u8], mut on_match: impl FnMut(Match)) {
        if self.patterns.is_empty() {
            return;
        }
        let overlap = self.max_pattern_len - 1;
        let n = haystack.len();
        if N > 1 && n < N * (overlap + MIN_LANE_STRETCH) {
            return self.walk::<1>(haystack, on_match);
        }
        // Every lane walks `len` bytes. Lane k starts `overlap` bytes
        // before lane k−1 ends (the last lane earlier still, so that it
        // ends with the haystack) and reports matches ending after
        // `floor[k]`, where lane k−1 ends.
        let len = (n + (N - 1) * overlap).div_ceil(N);
        let mut start = [0usize; N];
        let mut floor = [0usize; N];
        for k in 1..N {
            start[k] = (k * (len - overlap)).min(n - len);
            floor[k] = start[k - 1] + len;
        }
        let lanes: [&[u8]; N] = std::array::from_fn(|k| &haystack[start[k]..start[k] + len]);

        let mut state = [0u32; N];
        for i in 0..len {
            let mut any = 0;
            for k in 0..N {
                let class = self.classes[lanes[k][i] as usize];
                state[k] = self.delta[state[k] as usize + class as usize];
                any |= state[k];
            }
            if any & HAS_OUTPUT != 0 {
                for k in 0..N {
                    if state[k] & HAS_OUTPUT != 0 {
                        state[k] &= !HAS_OUTPUT;
                        let end = start[k] + i + 1;
                        if end > floor[k] {
                            self.report(state[k], haystack, end, &mut on_match);
                        }
                    }
                }
            }
        }
    }

    /// Reports the outputs of `state`, reached at `end`, confirming the
    /// case-sensitive ones against their original bytes.
    #[cold]
    fn report(&self, state: u32, haystack: &[u8], end: usize, on_match: &mut impl FnMut(Match)) {
        let s = (state >> self.shift) as usize;
        let (lo, hi) = (self.out_start[s] as usize, self.out_start[s + 1] as usize);
        for &pid in &self.out_items[lo..hi] {
            let p = &self.patterns[pid as usize];
            let (at, len) = (p.start as usize, p.len as usize);
            // A state's outputs are suffixes of the bytes that led to it,
            // so `len <= end`.
            if p.confirm && haystack[end - len..end] != self.pattern_bytes[at..at + len] {
                continue;
            }
            on_match(Match {
                pattern: pid as usize,
                end,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn exact<P: AsRef<[u8]>>(patterns: &[P]) -> AhoCorasick {
        AhoCorasick::new(patterns.iter().map(|p| (p.as_ref(), false)))
    }

    #[test]
    fn classic_example() {
        // The canonical {he, she, his, hers} example from the 1975 paper.
        let ac = exact(&["he", "she", "his", "hers"]);
        let m = ac.find_all(b"ushers");
        let found: Vec<(usize, usize)> = m.iter().map(|m| (m.pattern, m.end)).collect();
        assert_eq!(found, vec![(0, 4), (1, 4), (3, 6)]); // he, she @ 4; hers @ 6
    }

    #[test]
    fn overlapping_and_nested() {
        let ac = exact(&["aa", "aaa"]);
        let m = ac.find_all(b"aaaa");
        // aa at 2,3,4; aaa at 3,4
        assert_eq!(m.len(), 5);
    }

    #[test]
    fn case_insensitive_matching() {
        let ac = AhoCorasick::new([(&b"Attack"[..], true)]);
        assert_eq!(ac.find_all(b"aTTaCK at dawn").len(), 1);
        let exact = exact(&["Attack"]);
        assert!(exact.find_all(b"aTTaCK at dawn").is_empty());
        assert_eq!(exact.find_all(b"Attack at dawn").len(), 1);
    }

    #[test]
    fn same_letters_different_case_rules_share_one_trie_path() {
        // Equal up to case: the folded automaton reaches one state for
        // all three, and the confirm tells them apart.
        let ac = AhoCorasick::new([
            (&b"evil"[..], false),
            (&b"EVIL"[..], false),
            (&b"eViL"[..], true),
        ]);
        assert_eq!(ac.state_count(), 5);
        let ids =
            |hay: &[u8]| -> Vec<usize> { ac.find_all(hay).iter().map(|m| m.pattern).collect() };
        assert_eq!(ids(b"evil"), vec![0, 2]);
        assert_eq!(ids(b"EVIL"), vec![1, 2]);
        assert_eq!(ids(b"Evil"), vec![2]);
    }

    #[test]
    fn no_match() {
        let ac = exact(&["xyz", "evil"]);
        assert!(ac.find_all(b"perfectly benign payload").is_empty());
    }

    #[test]
    fn binary_patterns() {
        let ac = exact(&[&[0x00u8, 0xff, 0x00][..], &[0xeb, 0xfe][..]]);
        assert_eq!(ac.find_all(&[1, 2, 0x00, 0xff, 0x00, 3]).len(), 1);
        assert_eq!(ac.find_all(&[0xeb, 0xfe]).len(), 1);
        assert!(ac.find_all(&[0xff, 0x00, 0xfe]).is_empty());
    }

    #[test]
    fn alphabet_is_compressed_to_the_pattern_bytes() {
        let ac = AhoCorasick::new([(&b"Ab-1"[..], true), (&b"aB"[..], false)]);
        // a, b, '-', '1' and class 0.
        assert_eq!(ac.class_count(), 5);
        assert_eq!(ac.delta.len(), ac.state_count() * 8);
        assert_eq!(ac.max_pattern_len(), 4);
    }

    #[test]
    fn empty_pattern_set_matches_nothing() {
        let ac = exact::<&str>(&[]);
        assert_eq!((ac.pattern_count(), ac.state_count()), (0, 1));
        assert!(ac.find_all(&[7u8; 300]).is_empty());
    }

    #[test]
    #[should_panic(expected = "empty patterns")]
    fn empty_pattern_rejected() {
        exact(&[""]);
    }

    /// Naive oracle: all (pattern, end) pairs by brute force, folding
    /// case per pattern.
    fn naive_find_all(patterns: &[(Vec<u8>, bool)], haystack: &[u8]) -> Vec<Match> {
        let mut out = Vec::new();
        for (pid, (p, nocase)) in patterns.iter().enumerate() {
            for (i, window) in haystack.windows(p.len()).enumerate() {
                if window == p.as_slice() || (*nocase && window.eq_ignore_ascii_case(p)) {
                    out.push(Match {
                        pattern: pid,
                        end: i + p.len(),
                    });
                }
            }
        }
        out.sort_unstable_by_key(|m| (m.end, m.pattern));
        out
    }

    /// Four letters in both cases plus four binary bytes (one of them
    /// `0xC1`, which differs from `A` by more than the case bit and must
    /// not fold).
    const ALPHABET: [u8; 12] = *b"abcdABCD\x00\x01\xc1\xff";

    fn symbol() -> impl Strategy<Value = u8> {
        (0usize..ALPHABET.len()).prop_map(|i| ALPHABET[i])
    }

    /// Pattern sets rich in the relations that stress failure links and
    /// the confirm: every drawn pattern also contributes a prefix, a
    /// suffix, a case-flipped copy with the other `nocase`, and itself
    /// again.
    fn related_patterns() -> impl Strategy<Value = Vec<(Vec<u8>, bool)>> {
        prop::collection::vec((prop::collection::vec(symbol(), 1..7), any::<bool>()), 1..5)
            .prop_map(|seeds| {
                let mut out = Vec::new();
                for (p, nocase) in seeds {
                    out.push((p[..p.len().div_ceil(2)].to_vec(), !nocase));
                    out.push((p[p.len() / 2..].to_vec(), nocase));
                    let flipped = p
                        .iter()
                        .map(|b| {
                            if b.is_ascii_alphabetic() {
                                b ^ 0x20
                            } else {
                                *b
                            }
                        })
                        .collect();
                    out.push((flipped, !nocase));
                    out.push((p.clone(), nocase));
                    out.push((p, nocase));
                }
                out
            })
    }

    fn build(patterns: &[(Vec<u8>, bool)]) -> AhoCorasick {
        AhoCorasick::new(patterns.iter().map(|(p, nocase)| (p.as_slice(), *nocase)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn matches_naive_oracle(
            patterns in related_patterns(),
            // Long enough that most cases walk in lanes.
            haystack in prop::collection::vec(symbol(), 0..200),
        ) {
            let ac = build(&patterns);
            prop_assert_eq!(ac.find_all(&haystack), naive_find_all(&patterns, &haystack));
        }

        #[test]
        fn every_lane_count_reports_the_same_matches(
            patterns in related_patterns(),
            haystack in prop::collection::vec(symbol(), 0..400),
        ) {
            fn collect<const N: usize>(ac: &AhoCorasick, haystack: &[u8]) -> Vec<Match> {
                let mut out = Vec::new();
                ac.walk::<N>(haystack, |m| out.push(m));
                out.sort_unstable_by_key(|m| (m.end, m.pattern));
                out
            }
            let ac = build(&patterns);
            let one = collect::<1>(&ac, &haystack);
            prop_assert_eq!(&one, &naive_find_all(&patterns, &haystack));
            prop_assert_eq!(&one, &collect::<2>(&ac, &haystack));
            prop_assert_eq!(&one, &collect::<LANES>(&ac, &haystack));
            prop_assert_eq!(&one, &collect::<7>(&ac, &haystack));
        }

        #[test]
        fn matches_naive_oracle_over_all_bytes(
            patterns in prop::collection::vec(
                (prop::collection::vec(any::<u8>(), 1..4), any::<bool>()), 1..5),
            haystack in prop::collection::vec(any::<u8>(), 0..120),
        ) {
            let ac = build(&patterns);
            prop_assert_eq!(ac.find_all(&haystack), naive_find_all(&patterns, &haystack));
        }
    }
}
