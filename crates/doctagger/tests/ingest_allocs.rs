//! `P2PDocTagger::ingest(&corpus)` keeps the caller's documents instead of
//! copying them: under a counting global allocator, ingesting a corpus may
//! allocate at most [`SLACK_OF_TEXT_BYTES`] of the corpus' text bytes beyond
//! what vectorizing the same corpus allocates. A deep copy of the corpus
//! allocates every text again, at least the whole text size, so it cannot
//! come back unnoticed. The counter is process-global, so this file holds
//! exactly one test.

use dataset::{Corpus, CorpusGenerator, CorpusSpec, VectorizedCorpus};
use doctagger::{DocTaggerConfig, P2PDocTagger};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// The network, library and tag-store set-up of an ingest allocate tens of
/// kilobytes; a copied corpus is every text again.
const SLACK_OF_TEXT_BYTES: f64 = 0.01;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: delegates every operation to `System`; the counter update has no
// effect on the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: forwards `layout` unchanged to `System.alloc`, which upholds the
    // GlobalAlloc contract; the counter never touches the returned block.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            ALLOCATED.fetch_add(layout.size() as u64, Relaxed);
        }
        p
    }

    // SAFETY: the caller passes the `(ptr, layout)` pair `alloc` returned, and
    // both go to `System.dealloc` unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    // SAFETY: delegates to `System.realloc` with the caller's
    // `(ptr, layout, new_size)` untouched; the counter changes only on
    // success, by the bytes the block grew.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            ALLOCATED.fetch_add(new_size.saturating_sub(layout.size()) as u64, Relaxed);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Bytes allocated while `f` runs (and whatever it returns stays alive).
fn allocated_by<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATED.load(Relaxed);
    let out = f();
    (out, ALLOCATED.load(Relaxed) - before)
}

fn ingest(corpus: &Corpus) -> P2PDocTagger {
    let mut system = P2PDocTagger::new(DocTaggerConfig::default());
    system.ingest(corpus);
    system
}

#[test]
fn ingest_allocates_no_copy_of_the_corpus() {
    // Long documents (≈ 17 MB of text): the network's set-up, ≈ 75 kB
    // whatever the corpus, stays well under the slack.
    let corpus = CorpusGenerator::new(CorpusSpec {
        words_per_doc: 5_000,
        num_users: 3,
        seed: 2010,
        ..CorpusSpec::default()
    })
    .generate();
    let text_bytes: usize = corpus.documents().iter().map(|d| d.text.len()).sum();
    // Ingest first: state initialized lazily on a first call (thread-local
    // scratch, the parallel shim's thread count) then counts against it.
    let (system, ingest_bytes) = allocated_by(|| ingest(&corpus));
    let (_, vectorize_bytes) = allocated_by(|| VectorizedCorpus::build(&corpus));

    assert!(system.corpus().unwrap().shares_storage_with(&corpus));
    let beyond = ingest_bytes.saturating_sub(vectorize_bytes);
    assert!(
        (beyond as f64) < SLACK_OF_TEXT_BYTES * text_bytes as f64,
        "ingest allocated {ingest_bytes} B, vectorizing {vectorize_bytes} B: \
         {beyond} B beyond it against {text_bytes} B of text"
    );
}
