//! The Porter stemming algorithm.
//!
//! P2PDocTagger normalizes words "using the porter stemming algorithm to remove
//! the commoner morphological and inflexional endings (English)" (§2). This is a
//! faithful port of M. F. Porter's original 1980 algorithm (the classic ANSI C
//! reference implementation), operating on lower-case ASCII words. Words
//! containing non-ASCII-alphabetic characters are returned unchanged.

use serde::{Deserialize, Serialize};

/// Stateless Porter stemmer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PorterStemmer;

impl PorterStemmer {
    /// Creates a new stemmer.
    pub fn new() -> Self {
        Self
    }

    /// Stems a single lower-case word.
    ///
    /// Words shorter than three characters, or containing characters outside
    /// `a..=z`, are returned unchanged (the algorithm is defined for English
    /// ASCII words only).
    pub fn stem(&self, word: &str) -> String {
        self.stem_into(word, &mut Vec::new()).to_string()
    }

    /// [`Self::stem`] without the allocations: the stem is spelled in the
    /// reused `buf` (or is `word` itself when the word is left unchanged).
    pub(crate) fn stem_into<'a>(&self, word: &'a str, buf: &'a mut Vec<u8>) -> &'a str {
        if word.len() <= 2 || !word.bytes().all(|b| b.is_ascii_lowercase()) {
            return word;
        }
        buf.clear();
        buf.extend_from_slice(word.as_bytes());
        let mut s = Stem {
            b: buf,
            k: word.len() - 1,
            j: 0,
        };
        s.step1ab();
        s.step1c();
        s.step2();
        s.step3();
        s.step4();
        s.step5();
        let k = s.k;
        std::str::from_utf8(&buf[..=k]).expect("stemmer output is ASCII")
    }

    /// Stems every token in place.
    pub fn stem_all(&self, tokens: &mut [String]) {
        for t in tokens.iter_mut() {
            *t = self.stem(t);
        }
    }
}

struct Stem<'a> {
    b: &'a mut Vec<u8>,
    /// Index of the last character of the current word.
    k: usize,
    /// General offset used by the `ends`/`setto` machinery.
    j: usize,
}

impl Stem<'_> {
    /// Is the character at position `i` a consonant?
    fn cons(&self, i: usize) -> bool {
        match self.b[i] {
            b'a' | b'e' | b'i' | b'o' | b'u' => false,
            b'y' => {
                if i == 0 {
                    true
                } else {
                    !self.cons(i - 1)
                }
            }
            _ => true,
        }
    }

    /// Measures the number of consonant sequences between 0 and `j`.
    fn m(&self) -> usize {
        let mut n = 0;
        let mut i = 0;
        loop {
            if i > self.j {
                return n;
            }
            if !self.cons(i) {
                break;
            }
            i += 1;
        }
        i += 1;
        loop {
            loop {
                if i > self.j {
                    return n;
                }
                if self.cons(i) {
                    break;
                }
                i += 1;
            }
            i += 1;
            n += 1;
            loop {
                if i > self.j {
                    return n;
                }
                if !self.cons(i) {
                    break;
                }
                i += 1;
            }
            i += 1;
        }
    }

    /// True when 0..=j contains a vowel.
    fn vowel_in_stem(&self) -> bool {
        (0..=self.j).any(|i| !self.cons(i))
    }

    /// True when `j-1`, `j` contain a double consonant.
    fn doublec(&self, j: usize) -> bool {
        if j < 1 {
            return false;
        }
        if self.b[j] != self.b[j - 1] {
            return false;
        }
        self.cons(j)
    }

    /// True when `i-2`, `i-1`, `i` is consonant-vowel-consonant and the second
    /// consonant is not w, x or y.
    fn cvc(&self, i: usize) -> bool {
        if i < 2 || !self.cons(i) || self.cons(i - 1) || !self.cons(i - 2) {
            return false;
        }
        !matches!(self.b[i], b'w' | b'x' | b'y')
    }

    /// True when the word ends with `s`; sets `j` to the end of the stem.
    fn ends(&mut self, s: &[u8]) -> bool {
        let len = s.len();
        // The suffix must leave at least one character of stem so that `j`
        // (an unsigned index) stays valid; whole-word "suffixes" never match.
        if len > self.k {
            return false;
        }
        if &self.b[self.k + 1 - len..=self.k] != s {
            return false;
        }
        self.j = self.k - len;
        true
    }

    /// Replaces `b[j+1..=k]` with `s`, readjusting `k`.
    fn setto(&mut self, s: &[u8]) {
        self.b.truncate(self.j + 1);
        self.b.extend_from_slice(s);
        self.k = self.j + s.len();
    }

    /// `setto(s)` when `m() > 0`.
    fn r(&mut self, s: &[u8]) {
        if self.m() > 0 {
            self.setto(s);
        }
    }

    /// Removes plurals and -ed / -ing endings.
    fn step1ab(&mut self) {
        if self.b[self.k] == b's' {
            if self.ends(b"sses") {
                self.k -= 2;
            } else if self.ends(b"ies") {
                self.setto(b"i");
            } else if self.b[self.k - 1] != b's' {
                self.k -= 1;
            }
        }
        if self.ends(b"eed") {
            if self.m() > 0 {
                self.k -= 1;
            }
        } else if (self.ends(b"ed") || self.ends(b"ing")) && self.vowel_in_stem() {
            self.k = self.j;
            if self.ends(b"at") {
                self.setto(b"ate");
            } else if self.ends(b"bl") {
                self.setto(b"ble");
            } else if self.ends(b"iz") {
                self.setto(b"ize");
            } else if self.doublec(self.k) {
                self.k -= 1;
                if matches!(self.b[self.k], b'l' | b's' | b'z') {
                    self.k += 1;
                }
            } else if self.m() == 1 && self.cvc(self.k) {
                self.setto(b"e");
            }
        }
    }

    /// Turns terminal y into i when there is another vowel in the stem.
    fn step1c(&mut self) {
        if self.ends(b"y") && self.vowel_in_stem() {
            self.b[self.k] = b'i';
        }
    }

    /// Maps double suffices to single ones (e.g. -ization -> -ize) when m() > 0.
    // The single-branch match arms mirror the layout of Porter's reference
    // implementation (switch on the penultimate letter); match guards can't
    // replace them because `ends` needs `&mut self`.
    #[allow(clippy::collapsible_match)]
    fn step2(&mut self) {
        if self.k == 0 {
            return;
        }
        match self.b[self.k - 1] {
            b'a' => {
                if self.ends(b"ational") {
                    self.r(b"ate");
                } else if self.ends(b"tional") {
                    self.r(b"tion");
                }
            }
            b'c' => {
                if self.ends(b"enci") {
                    self.r(b"ence");
                } else if self.ends(b"anci") {
                    self.r(b"ance");
                }
            }
            b'e' => {
                if self.ends(b"izer") {
                    self.r(b"ize");
                }
            }
            b'l' => {
                if self.ends(b"bli") {
                    self.r(b"ble");
                } else if self.ends(b"alli") {
                    self.r(b"al");
                } else if self.ends(b"entli") {
                    self.r(b"ent");
                } else if self.ends(b"eli") {
                    self.r(b"e");
                } else if self.ends(b"ousli") {
                    self.r(b"ous");
                }
            }
            b'o' => {
                if self.ends(b"ization") {
                    self.r(b"ize");
                } else if self.ends(b"ation") || self.ends(b"ator") {
                    self.r(b"ate");
                }
            }
            b's' => {
                if self.ends(b"alism") {
                    self.r(b"al");
                } else if self.ends(b"iveness") {
                    self.r(b"ive");
                } else if self.ends(b"fulness") {
                    self.r(b"ful");
                } else if self.ends(b"ousness") {
                    self.r(b"ous");
                }
            }
            b't' => {
                if self.ends(b"aliti") {
                    self.r(b"al");
                } else if self.ends(b"iviti") {
                    self.r(b"ive");
                } else if self.ends(b"biliti") {
                    self.r(b"ble");
                }
            }
            b'g' => {
                if self.ends(b"logi") {
                    self.r(b"log");
                }
            }
            _ => {}
        }
    }

    /// Deals with -ic-, -full, -ness etc., similarly to step2.
    #[allow(clippy::collapsible_match)]
    fn step3(&mut self) {
        match self.b[self.k] {
            b'e' => {
                if self.ends(b"icate") {
                    self.r(b"ic");
                } else if self.ends(b"ative") {
                    self.r(b"");
                } else if self.ends(b"alize") {
                    self.r(b"al");
                }
            }
            b'i' => {
                if self.ends(b"iciti") {
                    self.r(b"ic");
                }
            }
            b'l' => {
                if self.ends(b"ical") {
                    self.r(b"ic");
                } else if self.ends(b"ful") {
                    self.r(b"");
                }
            }
            b's' => {
                if self.ends(b"ness") {
                    self.r(b"");
                }
            }
            _ => {}
        }
    }

    /// Takes off -ant, -ence etc., in context <c>vcvc<v>.
    fn step4(&mut self) {
        if self.k == 0 {
            return;
        }
        let matched = match self.b[self.k - 1] {
            b'a' => self.ends(b"al"),
            b'c' => self.ends(b"ance") || self.ends(b"ence"),
            b'e' => self.ends(b"er"),
            b'i' => self.ends(b"ic"),
            b'l' => self.ends(b"able") || self.ends(b"ible"),
            b'n' => {
                self.ends(b"ant") || self.ends(b"ement") || self.ends(b"ment") || self.ends(b"ent")
            }
            b'o' => {
                (self.ends(b"ion") && self.j > 0 && matches!(self.b[self.j], b's' | b't'))
                    || self.ends(b"ou")
            }
            b's' => self.ends(b"ism"),
            b't' => self.ends(b"ate") || self.ends(b"iti"),
            b'u' => self.ends(b"ous"),
            b'v' => self.ends(b"ive"),
            b'z' => self.ends(b"ize"),
            _ => false,
        };
        if matched && self.m() > 1 {
            self.k = self.j;
        }
    }

    /// Removes a final -e if m() > 1, and changes -ll to -l if m() > 1.
    fn step5(&mut self) {
        self.j = self.k;
        if self.b[self.k] == b'e' {
            let a = self.m();
            if a > 1 || (a == 1 && !self.cvc(self.k - 1)) {
                self.k -= 1;
            }
        }
        if self.b[self.k] == b'l' && self.doublec(self.k) && self.m() > 1 {
            self.k -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stem(w: &str) -> String {
        PorterStemmer::new().stem(w)
    }

    #[test]
    fn classic_examples() {
        assert_eq!(stem("caresses"), "caress");
        assert_eq!(stem("ponies"), "poni");
        assert_eq!(stem("ties"), "ti");
        assert_eq!(stem("caress"), "caress");
        assert_eq!(stem("cats"), "cat");
        assert_eq!(stem("feed"), "feed");
        assert_eq!(stem("agreed"), "agre");
        assert_eq!(stem("plastered"), "plaster");
        assert_eq!(stem("bled"), "bled");
        assert_eq!(stem("motoring"), "motor");
        assert_eq!(stem("sing"), "sing");
    }

    #[test]
    fn derivational_suffixes() {
        assert_eq!(stem("relational"), "relat");
        assert_eq!(stem("conditional"), "condit");
        assert_eq!(stem("rational"), "ration");
        assert_eq!(stem("valenci"), "valenc");
        assert_eq!(stem("hesitanci"), "hesit");
        assert_eq!(stem("digitizer"), "digit");
        assert_eq!(stem("conformabli"), "conform");
        assert_eq!(stem("radicalli"), "radic");
        assert_eq!(stem("differentli"), "differ");
        assert_eq!(stem("vileli"), "vile");
        assert_eq!(stem("analogousli"), "analog");
        assert_eq!(stem("vietnamization"), "vietnam");
        assert_eq!(stem("predication"), "predic");
        assert_eq!(stem("operator"), "oper");
        assert_eq!(stem("feudalism"), "feudal");
        assert_eq!(stem("decisiveness"), "decis");
        assert_eq!(stem("hopefulness"), "hope");
        assert_eq!(stem("callousness"), "callous");
        assert_eq!(stem("formaliti"), "formal");
        assert_eq!(stem("sensitiviti"), "sensit");
        assert_eq!(stem("sensibiliti"), "sensibl");
    }

    #[test]
    fn step3_and_4_examples() {
        assert_eq!(stem("triplicate"), "triplic");
        assert_eq!(stem("formative"), "form");
        assert_eq!(stem("formalize"), "formal");
        assert_eq!(stem("electriciti"), "electr");
        assert_eq!(stem("electrical"), "electr");
        assert_eq!(stem("hopeful"), "hope");
        assert_eq!(stem("goodness"), "good");
        assert_eq!(stem("revival"), "reviv");
        assert_eq!(stem("allowance"), "allow");
        assert_eq!(stem("inference"), "infer");
        assert_eq!(stem("airliner"), "airlin");
        assert_eq!(stem("gyroscopic"), "gyroscop");
        assert_eq!(stem("adjustable"), "adjust");
        assert_eq!(stem("defensible"), "defens");
        assert_eq!(stem("irritant"), "irrit");
        assert_eq!(stem("replacement"), "replac");
        assert_eq!(stem("adjustment"), "adjust");
        assert_eq!(stem("dependent"), "depend");
        assert_eq!(stem("adoption"), "adopt");
        assert_eq!(stem("homologou"), "homolog");
        assert_eq!(stem("communism"), "commun");
        assert_eq!(stem("activate"), "activ");
        assert_eq!(stem("angulariti"), "angular");
        assert_eq!(stem("homologous"), "homolog");
        assert_eq!(stem("effective"), "effect");
        assert_eq!(stem("bowdlerize"), "bowdler");
    }

    #[test]
    fn step5_examples() {
        assert_eq!(stem("probate"), "probat");
        assert_eq!(stem("rate"), "rate");
        assert_eq!(stem("cease"), "ceas");
        assert_eq!(stem("controll"), "control");
        assert_eq!(stem("roll"), "roll");
    }

    #[test]
    fn domain_words() {
        assert_eq!(stem("classification"), "classif");
        assert_eq!(stem("tagging"), "tag");
        assert_eq!(stem("documents"), "document");
        assert_eq!(stem("networks"), "network");
        assert_eq!(stem("distributed"), "distribut");
        assert_eq!(stem("collaborative"), "collabor");
    }

    #[test]
    fn short_and_non_ascii_unchanged() {
        assert_eq!(stem("go"), "go");
        assert_eq!(stem("a"), "a");
        assert_eq!(stem("straße"), "straße");
        assert_eq!(stem("naïve"), "naïve");
    }

    #[test]
    fn stem_all_in_place() {
        let mut tokens = vec!["running".to_string(), "dogs".to_string()];
        PorterStemmer::new().stem_all(&mut tokens);
        assert_eq!(tokens, vec!["run".to_string(), "dog".to_string()]);
    }

    #[test]
    fn idempotent_on_common_words() {
        let stemmer = PorterStemmer::new();
        for w in [
            "running",
            "classification",
            "documents",
            "relational",
            "tagging",
        ] {
            let once = stemmer.stem(w);
            let twice = stemmer.stem(&once);
            // Porter is not idempotent in general, but for these words it is;
            // this guards against gross regressions in the implementation.
            assert_eq!(once, twice, "word {w}");
        }
    }
}
