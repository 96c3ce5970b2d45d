//! Tokenization of attribute values and keyword queries.
//!
//! The tokenizer is intentionally simple and shared between indexing and
//! query parsing so both sides agree on term boundaries: lowercase, split on
//! any non-alphanumeric character, drop empty segments, optionally drop
//! stopwords. No stemming — the paper's systems index raw terms (§2.2.1
//! mentions normalization as optional).

use std::collections::HashSet;

/// Default English stopwords. Short on purpose: over-aggressive stopword
/// removal would delete meaningful one-word titles.
const DEFAULT_STOPWORDS: &[&str] = &[
    "a", "an", "and", "are", "as", "at", "be", "by", "for", "from", "in", "is", "it", "of", "on",
    "or", "that", "the", "to", "with",
];

/// A configurable tokenizer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tokenizer {
    stopwords: HashSet<String>,
}

impl Default for Tokenizer {
    fn default() -> Self {
        Tokenizer {
            stopwords: DEFAULT_STOPWORDS.iter().map(|s| s.to_string()).collect(),
        }
    }
}

impl Tokenizer {
    /// Tokenizer with the default stopword list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tokenizer that keeps every token (used for keyword queries, where the
    /// user's words are sacred; "The Terminal" should keep "the" if typed).
    pub fn keep_all() -> Self {
        Tokenizer {
            stopwords: HashSet::new(),
        }
    }

    /// Tokenizer with an explicit stopword list (snapshot reload: a stored
    /// index must tokenize future rows exactly as the original did).
    pub fn with_stopwords<I>(stopwords: I) -> Self
    where
        I: IntoIterator<Item = String>,
    {
        Tokenizer {
            stopwords: stopwords.into_iter().collect(),
        }
    }

    /// The stopword list, sorted — a deterministic rendering of the
    /// tokenizer's only configuration, used by the index snapshot.
    pub fn stopwords(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self.stopwords.iter().map(String::as_str).collect();
        out.sort_unstable();
        out
    }

    /// Tokenize `text` into lowercase terms.
    pub fn tokenize(&self, text: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut cur = String::new();
        for ch in text.chars() {
            if ch.is_alphanumeric() {
                cur.extend(ch.to_lowercase());
            } else if !cur.is_empty() {
                if !self.stopwords.contains(&cur) {
                    out.push(std::mem::take(&mut cur));
                } else {
                    cur.clear();
                }
            }
        }
        if !cur.is_empty() && !self.stopwords.contains(&cur) {
            out.push(cur);
        }
        out
    }

    /// Tokenize and deduplicate, preserving first-seen order.
    pub fn tokenize_unique(&self, text: &str) -> Vec<String> {
        let mut seen = HashSet::new();
        self.tokenize(text)
            .into_iter()
            .filter(|t| seen.insert(t.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_split_and_lowercase() {
        let t = Tokenizer::keep_all();
        assert_eq!(t.tokenize("Tom Hanks"), vec!["tom", "hanks"]);
        assert_eq!(t.tokenize("Top-Gun (1986)!"), vec!["top", "gun", "1986"]);
        assert_eq!(t.tokenize(""), Vec::<String>::new());
        assert_eq!(t.tokenize("  ,,  "), Vec::<String>::new());
    }

    #[test]
    fn stopwords_removed_by_default() {
        let t = Tokenizer::new();
        assert_eq!(t.tokenize("The Terminal"), vec!["terminal"]);
        assert_eq!(
            t.tokenize("Joe versus the Volcano"),
            vec!["joe", "versus", "volcano"]
        );
        assert!(t.tokenize("the").is_empty());
    }

    #[test]
    fn keep_all_keeps_stopwords() {
        let t = Tokenizer::keep_all();
        assert_eq!(t.tokenize("The Terminal"), vec!["the", "terminal"]);
    }

    #[test]
    fn unicode_lowercasing() {
        let t = Tokenizer::keep_all();
        assert_eq!(t.tokenize("Škoda Österreich"), vec!["škoda", "österreich"]);
    }

    #[test]
    fn unique_dedup_preserves_order() {
        let t = Tokenizer::keep_all();
        assert_eq!(t.tokenize_unique("tom tom hanks tom"), vec!["tom", "hanks"]);
    }

    #[test]
    fn stopwords_roundtrip_through_accessors() {
        let t = Tokenizer::new();
        let words: Vec<String> = t.stopwords().iter().map(|s| s.to_string()).collect();
        assert_eq!(words.len(), DEFAULT_STOPWORDS.len());
        assert!(words.windows(2).all(|w| w[0] < w[1]), "sorted");
        let back = Tokenizer::with_stopwords(words);
        assert_eq!(back.stopwords(), t.stopwords());
        assert_eq!(back.tokenize("The Terminal"), t.tokenize("The Terminal"));
        assert!(Tokenizer::with_stopwords(Vec::new()).stopwords().is_empty());
    }

    #[test]
    fn digits_kept() {
        let t = Tokenizer::new();
        assert_eq!(
            t.tokenize("2001: A Space Odyssey"),
            vec!["2001", "space", "odyssey"]
        );
    }
}
