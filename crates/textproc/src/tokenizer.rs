//! Word tokenization.
//!
//! The tokenizer splits raw text into lower-cased word tokens, mirroring the
//! information-retrieval-style preprocessing described in §2 of the paper.

use serde::{Deserialize, Serialize};

/// Configuration and implementation of the word tokenizer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Tokenizer {
    /// Convert tokens to lower case (default `true`).
    pub lowercase: bool,
    /// Minimum token length in characters; shorter tokens are dropped (default 2).
    pub min_len: usize,
    /// Maximum token length in characters; longer tokens are dropped (default 40).
    pub max_len: usize,
    /// Keep tokens that contain digits (default `false`, i.e. purely numeric or
    /// alphanumeric tokens such as `42` or `x86` are dropped).
    pub keep_numeric: bool,
}

impl Default for Tokenizer {
    fn default() -> Self {
        Self {
            lowercase: true,
            min_len: 2,
            max_len: 40,
            keep_numeric: false,
        }
    }
}

impl Tokenizer {
    /// Creates a tokenizer with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Splits `text` into tokens according to the configuration.
    ///
    /// Tokens are maximal runs of alphanumeric characters (plus `'` which is
    /// stripped, so that "don't" becomes "dont").
    pub fn tokenize(&self, text: &str) -> Vec<String> {
        let mut tokens = Vec::new();
        let keep = |run: &str| tokens.extend(self.keeps(run).then(|| run.to_string()));
        self.scan(text, &mut String::new(), keep);
        tokens
    }

    /// The one text scanner, shared with the vectorizer: hands `emit` every
    /// maximal alphanumeric run (lower-cased when configured, apostrophes
    /// stripped), spelled in the reused `buf`. The length and digit rules are
    /// [`Self::keeps`], which a memoising caller applies once per distinct run.
    pub(crate) fn scan(&self, text: &str, buf: &mut String, mut emit: impl FnMut(&str)) {
        buf.clear();
        // The trailing space flushes the last run.
        for ch in text.chars().chain([' ']) {
            if !ch.is_alphanumeric() {
                // apostrophes are dropped but do not break the token: don't -> dont
                if ch != '\'' && !buf.is_empty() {
                    emit(buf);
                    buf.clear();
                }
            } else if !self.lowercase {
                buf.push(ch);
            } else if ch.is_ascii() {
                buf.push(ch.to_ascii_lowercase());
            } else {
                // 'İ' lower-cases to "i\u{307}": the combining mark is no token char.
                buf.extend(ch.to_lowercase().filter(|c| c.is_alphanumeric()));
            }
        }
    }

    /// The length and digit rules a scanned run must pass to be a token.
    pub(crate) fn keeps(&self, run: &str) -> bool {
        (self.min_len..=self.max_len).contains(&run.chars().count())
            && (self.keep_numeric || !run.bytes().any(|b| b.is_ascii_digit()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_on_non_alphanumeric() {
        let t = Tokenizer::new();
        assert_eq!(
            t.tokenize("Peer-to-peer networks, share resources!"),
            vec!["peer", "to", "peer", "networks", "share", "resources"]
        );
    }

    #[test]
    fn lowercases_and_strips_apostrophes() {
        let t = Tokenizer::new();
        assert_eq!(t.tokenize("Don't STOP"), vec!["dont", "stop"]);
    }

    #[test]
    fn drops_short_and_numeric_tokens() {
        let t = Tokenizer::new();
        assert_eq!(t.tokenize("a I x86 42 ok"), vec!["ok"]);
    }

    #[test]
    fn keep_numeric_option() {
        let t = Tokenizer {
            keep_numeric: true,
            ..Tokenizer::default()
        };
        assert_eq!(t.tokenize("ipv6 42"), vec!["ipv6", "42"]);
    }

    #[test]
    fn respects_max_len() {
        let t = Tokenizer {
            max_len: 5,
            ..Tokenizer::default()
        };
        assert_eq!(t.tokenize("short verylongword"), vec!["short"]);
    }

    #[test]
    fn empty_input() {
        let t = Tokenizer::new();
        assert!(t.tokenize("").is_empty());
        assert!(t.tokenize("   ,,, !!").is_empty());
    }

    #[test]
    fn lowercase_expansion_keeps_only_alphanumeric_chars() {
        // 'İ' (U+0130) lower-cases to "i\u{307}"; the combining dot is not a
        // token character.
        let t = Tokenizer::new();
        assert_eq!(t.tokenize("İstanbul"), vec!["istanbul"]);
        assert_eq!(t.tokenize("İİ aİb"), vec!["ii", "aib"]);
    }

    /// The char-by-char, `String`-per-token tokenizer the scanner replaced
    /// (with the lower-case expansion filtered), kept as its oracle.
    fn reference(t: &Tokenizer, text: &str) -> Vec<String> {
        let mut runs = vec![String::new()];
        for ch in text.chars() {
            let run = runs.last_mut().unwrap();
            if !ch.is_alphanumeric() {
                if ch != '\'' {
                    runs.push(String::new());
                }
            } else if t.lowercase {
                run.extend(ch.to_lowercase().filter(|c| c.is_alphanumeric()));
            } else {
                run.push(ch);
            }
        }
        runs.retain(|run| {
            let n = run.chars().count();
            n >= t.min_len
                && n <= t.max_len
                && (t.keep_numeric || !run.chars().any(|c| c.is_ascii_digit()))
        });
        runs
    }

    #[test]
    fn scanner_matches_the_charwise_reference() {
        let texts = [
            "Peer-to-peer networks, share resources!",
            "Don't STOP 'quoted' o''clock '",
            "a I x86 42 ok ٣٣٣ x٣",
            "İstanbul İİ aİb ǅungla ẞ straße Müller 中文 λόγος 𝕏𝕏",
            "trailing token",
            "",
            " \t\n,,,",
        ];
        for lowercase in [true, false] {
            for keep_numeric in [true, false] {
                let t = Tokenizer {
                    lowercase,
                    keep_numeric,
                    min_len: 2,
                    max_len: 8,
                };
                for text in texts {
                    assert_eq!(t.tokenize(text), reference(&t, text), "{t:?} {text:?}");
                }
            }
        }
    }

    #[test]
    fn unicode_tokens() {
        let t = Tokenizer::new();
        assert_eq!(t.tokenize("Müller straße"), vec!["müller", "straße"]);
    }
}
