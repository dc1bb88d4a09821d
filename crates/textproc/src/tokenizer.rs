//! Word tokenization.
//!
//! The tokenizer splits raw text into lower-cased word tokens, mirroring the
//! information-retrieval-style preprocessing described in §2 of the paper.
//!
//! Splitting and normalizing are two steps. `raw_runs` cuts the text into
//! *raw runs*, maximal runs of alphanumeric characters and apostrophes, as
//! slices of the text; `Tokenizer::token` turns one raw run into its token
//! (apostrophes dropped, lower-cased, length and digit rules). A run's token
//! depends on its bytes alone, so the vectorizer normalizes each distinct raw
//! spelling once per call and a repeat costs the split and one memo probe.

use serde::{Deserialize, Serialize};

/// The word tokenizer: lower-cased tokens of 2 to 40 characters, none of
/// which is a digit.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Tokenizer;

/// Tokens shorter than this many characters are dropped.
const MIN_LEN: usize = 2;
/// Tokens longer than this many characters are dropped.
const MAX_LEN: usize = 40;

/// Whether each ASCII byte continues a run (alphanumeric or `'`); bytes
/// ≥ 0x80 start a non-ASCII char, which decides by [`char::is_alphanumeric`].
static RUN_BYTE: [bool; 256] = {
    let mut table = [false; 256];
    let mut b = 0;
    while b < 128 {
        table[b] = (b as u8).is_ascii_alphanumeric() || b as u8 == b'\'';
        b += 1;
    }
    table
};

/// Hands `emit` every raw run of `text` in order: each maximal run of
/// alphanumeric chars and apostrophes, unnormalized, as a slice of `text`.
pub(crate) fn raw_runs<'t>(text: &'t str, mut emit: impl FnMut(&'t str)) {
    let bytes = text.as_bytes();
    let (mut start, mut i) = (0, 0);
    loop {
        while i < bytes.len() && RUN_BYTE[bytes[i] as usize] {
            i += 1;
        }
        // `i` ends the text, or sits on an ASCII break or a non-ASCII char.
        let width = match bytes.get(i) {
            None => 0,
            Some(&b) if b < 0x80 => 1,
            Some(_) => {
                let ch = text[i..].chars().next().expect("i is a char boundary");
                if ch.is_alphanumeric() {
                    i += ch.len_utf8();
                    continue;
                }
                ch.len_utf8()
            }
        };
        if start < i {
            emit(&text[start..i]);
        }
        if width == 0 {
            return;
        }
        i += width;
        start = i;
    }
}

impl Tokenizer {
    /// Creates the tokenizer.
    pub fn new() -> Self {
        Self
    }

    /// Splits `text` into tokens.
    ///
    /// Tokens are maximal runs of alphanumeric characters (plus `'` which is
    /// stripped, so that "don't" becomes "dont").
    pub fn tokenize(&self, text: &str) -> Vec<String> {
        let mut tokens = Vec::new();
        self.scan(text, |t| tokens.push(t.to_string()));
        tokens
    }

    /// The one text scanner, shared with the vectorizer's `terms`: hands
    /// `emit` the token of every raw run that yields one, spelled in one
    /// reused buffer.
    pub(crate) fn scan(&self, text: &str, mut emit: impl FnMut(&str)) {
        let mut buf = String::new();
        raw_runs(text, |raw| {
            if let Some(token) = self.token(raw, &mut buf) {
                emit(token);
            }
        });
    }

    /// The token of one raw run, spelled in the reused `buf`: apostrophes
    /// dropped, lower-cased, then held to the length and digit rules. `None`
    /// when the run yields no token.
    pub(crate) fn token<'b>(&self, raw: &str, buf: &'b mut String) -> Option<&'b str> {
        buf.clear();
        for ch in raw.chars() {
            if ch == '\'' {
                // apostrophes are dropped but do not break the token: don't -> dont
            } else if ch.is_ascii() {
                buf.push(ch.to_ascii_lowercase());
            } else {
                // 'İ' lower-cases to "i\u{307}": the combining mark is no token char.
                buf.extend(ch.to_lowercase().filter(|c| c.is_alphanumeric()));
            }
        }
        let chars = buf.chars().count();
        let kept = (MIN_LEN..=MAX_LEN).contains(&chars) && !buf.bytes().any(|b| b.is_ascii_digit());
        kept.then_some(buf.as_str())
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
    fn respects_max_len() {
        let t = Tokenizer::new();
        let (longest, too_long) = ("w".repeat(MAX_LEN), "w".repeat(MAX_LEN + 1));
        let text = format!("short {too_long} {longest}");
        assert_eq!(t.tokenize(&text), vec!["short".to_string(), longest]);
    }

    #[test]
    fn empty_input() {
        let t = Tokenizer::new();
        assert!(t.tokenize("").is_empty());
        assert!(t.tokenize("   ,,, !!").is_empty());
        // Apostrophes spell nothing and count toward no token's length.
        assert_eq!(t.tokenize("' '' a' ''' ab'"), vec!["ab"]);
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
    fn reference(text: &str) -> Vec<String> {
        let mut runs = vec![String::new()];
        for ch in text.chars() {
            let run = runs.last_mut().unwrap();
            if !ch.is_alphanumeric() {
                if ch != '\'' {
                    runs.push(String::new());
                }
            } else {
                run.extend(ch.to_lowercase().filter(|c| c.is_alphanumeric()));
            }
        }
        runs.retain(|run| {
            let n = run.chars().count();
            (MIN_LEN..=MAX_LEN).contains(&n) && !run.chars().any(|c| c.is_ascii_digit())
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
            "forty-char wwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwww and forty-one ẞwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwwww",
            "",
            " \t\n,,,",
            "peer's\tPEER's\t'peer' ''' 'x' 2'4 ab'c'd\u{301}e\u{a0}f",
        ];
        let t = Tokenizer::new();
        for text in texts {
            assert_eq!(t.tokenize(text), reference(text), "{text:?}");
        }
    }

    #[test]
    fn unicode_tokens() {
        let t = Tokenizer::new();
        assert_eq!(t.tokenize("Müller straße"), vec!["müller", "straße"]);
    }
}
