//! Scanning a token never allocates: under a counting global allocator,
//! `fit_transform` over a corpus and over the same corpus with every document
//! doubled (its own words repeated after it) make exactly the same number of
//! allocations, and so does `transform` of a document and of its double. A
//! repeat adds tokens but no new raw spelling, id or vector entry, so any
//! per-token allocation — a `String` per token, a pair per occurrence — would
//! show as a difference. Only the measuring thread's allocations count: the
//! pipeline runs on its caller's thread, and the test harness's own thread
//! allocates at moments of its own choosing (it once added four allocations
//! to the first measurement and failed the comparison).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use textproc::PreprocessPipeline;

thread_local! {
    /// Allocations made on this thread while [`allocations_of`] measures, or
    /// `None` outside a measurement.
    static ALLOCATIONS: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Counts one allocation if the current thread is measuring. `try_with`
/// keeps an allocation made while the thread-local is being torn down from
/// panicking.
fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get().map(|n| n + 1)));
}

struct CountingAllocator;

// SAFETY: delegates every operation to `System`; the counter update has no
// effect on the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: forwards `layout` unchanged to `System.alloc`, which upholds the
    // GlobalAlloc contract; the counter never touches the returned block.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    // SAFETY: the caller passes the `(ptr, layout)` pair `alloc` returned, and
    // both go to `System.dealloc` unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    // SAFETY: delegates to `System.realloc` with the caller's
    // `(ptr, layout, new_size)` untouched; the counter is not part of it.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations (and reallocations) made on this thread while `f` runs; what
/// it returns is dropped only afterwards.
fn allocations_of<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALLOCATIONS.with(|n| n.set(Some(0)));
    let out = f();
    let made = ALLOCATIONS
        .with(|n| n.take())
        .expect("measurement in progress");
    (out, made)
}

/// Raw spellings with case variants, apostrophes, digits, stop words and
/// non-ASCII letters, so that a term arrives under several spellings.
const WORDS: &[&str] = &[
    "peer",
    "Peer",
    "PEER",
    "peer's",
    "peers",
    "network",
    "Networks",
    "share",
    "sharing",
    "document",
    "documents",
    "Document's",
    "tag",
    "tags",
    "tagging",
    "TAGGED",
    "collaborative",
    "classification",
    "classifier",
    "the",
    "and",
    "of",
    "a",
    "x86",
    "42",
    "don't",
    "straße",
    "İstanbul",
    "λόγος",
    "Müller",
    "retrieval",
    "library",
    "libraries",
    "model",
    "models",
];

/// A deterministic corpus of `n` documents drawn from [`WORDS`].
fn corpus(n: usize) -> Vec<String> {
    let mut state = 0x2010_u64;
    let mut next = |bound: usize| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize % bound
    };
    (0..n)
        .map(|_| {
            let len = 5 + next(40);
            let words: Vec<&str> = (0..len).map(|_| WORDS[next(WORDS.len())]).collect();
            words.join([" ", ", ", "\t", ". "][next(4)])
        })
        .collect()
}

#[test]
fn a_repeated_token_allocates_nothing() {
    let docs = corpus(300);
    let doubled: Vec<String> = docs.iter().map(|doc| format!("{doc} {doc}")).collect();
    let fit = |docs: &[String]| {
        allocations_of(|| {
            let mut pipeline = PreprocessPipeline::new();
            let vectors = pipeline.fit_transform(docs.iter().map(String::as_str));
            (pipeline, vectors)
        })
    };
    let ((pipeline, once), single) = fit(&docs);
    let ((_, twice), double) = fit(&doubled);
    assert_eq!(once.len(), twice.len());
    assert!(once
        .iter()
        .zip(&twice)
        .all(|(a, b)| a.indices() == b.indices()));
    assert_eq!(
        double, single,
        "fit_transform allocated differently once every document repeats its words"
    );

    for (doc, doubled) in docs.iter().zip(&doubled).take(20) {
        let (_, single) = allocations_of(|| pipeline.transform(doc));
        let (_, double) = allocations_of(|| pipeline.transform(doubled));
        assert_eq!(double, single, "transform of {doc:?}");
    }
}
