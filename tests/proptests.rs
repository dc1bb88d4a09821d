//! Property-based tests over the core data structures and invariants,
//! spanning the preprocessing, learning and overlay substrates.

use p2pdoctagger::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::OnceLock;

/// A tiny corpus shared by the arrival-timeline properties (generation is the
/// expensive part; the properties vary only the arrival spec).
fn arrival_corpus() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| {
        CorpusGenerator::new(CorpusSpec {
            num_users: 6,
            seed: 99,
            ..CorpusSpec::tiny()
        })
        .generate()
    })
}

/// A tiny corpus spec with the adversarial knobs applied.
fn skewed_spec(imitation: f64, communities: Option<CommunitySpec>, seed: u64) -> CorpusSpec {
    CorpusSpec {
        num_users: 6,
        imitation,
        communities,
        seed,
        ..CorpusSpec::tiny()
    }
}

fn sparse_vector_strategy(max_dim: u32, max_nnz: usize) -> impl Strategy<Value = SparseVector> {
    prop::collection::vec((0..max_dim, -10.0f64..10.0), 0..max_nnz)
        .prop_map(SparseVector::from_pairs)
}

/// Raw spellings the ingest oracle property draws documents from: one term
/// under case variants, inner and edge apostrophes, digits, non-ASCII case
/// mappings (`ß`, `İ`, `λ`), stop words and runs too short to keep.
const SURFACE_FORMS: &[&str] = &[
    "peer",
    "Peer",
    "PEER",
    "peer's",
    "'peer",
    "peers'",
    "pe'er",
    "PEERS",
    "p2p",
    "P2P",
    "42",
    "x86",
    "ok",
    "OK",
    "don't",
    "dont",
    "The",
    "the",
    "a",
    "I",
    "'",
    "''",
    "straße",
    "STRASSE",
    "Straße",
    "İstanbul",
    "istanbul",
    "İİ",
    "λόγος",
    "ΛΌΓΟΣ",
    "Λόγος",
    "tagging",
    "Tagged",
    "tags'",
    "ẞ",
];

/// Separators between the drawn spellings.
const SEPARATORS: &[&str] = &[" ", "\t", ", ", ".", "-", "\n", "!\t", "’", "\u{a0}"];

/// The char-by-char, `String`-per-token tokenizer the raw-run scanner
/// replaced: the first stage of the ingest oracle. Tokens are lower-cased,
/// 2 to 40 chars long and hold no digit.
fn charwise_tokens(text: &str) -> Vec<String> {
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
        (2..=40).contains(&n) && !run.chars().any(|c| c.is_ascii_digit())
    });
    runs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---------- sparse vectors -------------------------------------------------

    #[test]
    fn sparse_indices_are_sorted_and_unique(v in sparse_vector_strategy(200, 40)) {
        let idx = v.indices();
        for w in idx.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        prop_assert!(v.values().iter().all(|&x| x != 0.0));
    }

    #[test]
    fn dot_product_is_symmetric_and_bounded_by_norms(
        a in sparse_vector_strategy(100, 30),
        b in sparse_vector_strategy(100, 30),
    ) {
        prop_assert!((a.dot(&b) - b.dot(&a)).abs() < 1e-9);
        // Cauchy-Schwarz.
        prop_assert!(a.dot(&b).abs() <= a.norm() * b.norm() + 1e-9);
    }

    #[test]
    fn add_then_sub_roundtrips(
        a in sparse_vector_strategy(100, 30),
        b in sparse_vector_strategy(100, 30),
    ) {
        let roundtrip = a.add(&b).sub(&b);
        // Compare as dense vectors with tolerance (floating point).
        let dim = roundtrip.dim_lower_bound().max(a.dim_lower_bound());
        let lhs = roundtrip.to_dense(dim);
        let rhs = a.to_dense(dim);
        for (x, y) in lhs.iter().zip(&rhs) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn l2_normalization_yields_unit_norm(v in sparse_vector_strategy(100, 30)) {
        let mut v = v;
        if !v.is_empty() {
            v.l2_normalize();
            prop_assert!((v.norm() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn distance_satisfies_triangle_inequality(
        a in sparse_vector_strategy(50, 20),
        b in sparse_vector_strategy(50, 20),
        c in sparse_vector_strategy(50, 20),
    ) {
        prop_assert!(a.distance(&c) <= a.distance(&b) + b.distance(&c) + 1e-9);
    }

    // ---------- preprocessing --------------------------------------------------

    #[test]
    fn stemmer_output_is_never_longer_and_is_ascii_for_ascii_input(
        word in "[a-z]{1,20}",
    ) {
        let stemmer = PorterStemmer::new();
        let stem = stemmer.stem(&word);
        prop_assert!(stem.len() <= word.len());
        prop_assert!(!stem.is_empty());
        prop_assert!(stem.bytes().all(|b| b.is_ascii_lowercase()));
    }

    #[test]
    fn tokenizer_output_obeys_length_and_charset_rules(text in ".{0,200}") {
        for token in Tokenizer::new().tokenize(&text) {
            let n = token.chars().count();
            prop_assert!((2..=40).contains(&n));
            prop_assert!(token.chars().all(|c| c.is_alphanumeric()));
            prop_assert!(!token.chars().any(|c| c.is_ascii_digit()));
        }
    }

    #[test]
    fn pipeline_vectors_are_deterministic(docs in prop::collection::vec("[a-z ]{10,80}", 2..6)) {
        let run = |docs: &[String]| {
            let mut p = PreprocessPipeline::new();
            p.fit_transform(docs.iter().map(String::as_str))
        };
        prop_assert_eq!(run(&docs), run(&docs));
    }

    #[test]
    fn one_pass_ingest_matches_the_two_pass_oracle(
        docs in prop::collection::vec(
            (prop::collection::vec((0..SURFACE_FORMS.len(), 0..SEPARATORS.len()), 0..24), ".{0,40}"),
            1..6,
        ),
    ) {
        // Each document spells a few terms under several raw spellings (case,
        // apostrophes, non-ASCII case mappings) between assorted separators,
        // then a stretch of free text.
        let docs: Vec<String> = docs
            .iter()
            .map(|(words, free)| {
                let mut doc: String = words
                    .iter()
                    .flat_map(|&(w, sep)| [SURFACE_FORMS[w], SEPARATORS[sep]])
                    .collect();
                doc.push_str(free);
                doc
            })
            .collect();
        let docs: Vec<&str> = docs.iter().map(String::as_str).collect();
        // A char-by-char tokenizer, the filter, the stemmer and the public
        // vocabulary counters, composed per document and twice over the
        // corpus — what `fit` + `transform` did before the one-pass scanner —
        // are the oracle.
        let mut filter = StopWordFilter::english();
        filter.add_sensitive_word("ok");
        let terms = |text: &str| {
            let mut terms = filter.filter(charwise_tokens(text));
            PorterStemmer::new().stem_all(&mut terms);
            terms
        };
        let mut vocabulary = Vocabulary::new();
        for doc in &docs {
            vocabulary.observe_document(terms(doc).iter().map(String::as_str));
        }
        let want: Vec<SparseVector> = docs
            .iter()
            .map(|doc| {
                let counts = vocabulary.count_tokens(terms(doc).iter().map(String::as_str));
                let mut v = SparseVector::from_sorted_pairs(
                    counts.iter().map(|(&id, &tf)| (id, f64::from(tf) * vocabulary.idf(id))),
                );
                v.l2_normalize();
                v
            })
            .collect();

        let pipeline = || {
            let mut p = PreprocessPipeline::new();
            p.stop_words_mut().add_sensitive_word("ok");
            p
        };
        let mut one_pass = pipeline();
        let one_pass_vectors = one_pass.fit_transform(docs.iter().copied());
        let mut two_step = pipeline();
        two_step.fit(docs.iter().copied());
        let two_step_vectors = two_step.transform_batch(&docs);
        let singly: Vec<SparseVector> = docs.iter().map(|doc| two_step.transform(doc)).collect();
        for (p, got) in [(&one_pass, &one_pass_vectors), (&two_step, &two_step_vectors), (&two_step, &singly)] {
            let v = p.vocabulary();
            prop_assert_eq!(v.num_docs(), vocabulary.num_docs());
            prop_assert_eq!(v.iter().collect::<Vec<_>>(), vocabulary.iter().collect::<Vec<_>>());
            for (_, id) in v.iter() {
                prop_assert_eq!(v.doc_freq(id), vocabulary.doc_freq(id));
            }
            prop_assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!(g.indices(), w.indices());
                let bits = |v: &SparseVector| v.values().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(g), bits(w));
            }
        }
        for doc in &docs {
            prop_assert_eq!(Tokenizer::new().tokenize(doc), charwise_tokens(doc));
            prop_assert_eq!(one_pass.terms(doc), terms(doc));
        }
    }

    // ---------- parallel execution layer ---------------------------------------

    #[test]
    fn par_map_equals_sequential_map(
        items in prop::collection::vec((0u32..1000, -5.0f64..5.0), 0..120),
    ) {
        // The ordered reduction contract: par_map output is index-ordered and
        // therefore identical (bitwise, for the float payloads) to map.
        let f = |&(k, v): &(u32, f64)| (k.wrapping_mul(2654435761), (v * 1.5).sin());
        let sequential: Vec<(u32, f64)> = items.iter().map(f).collect();
        let parallel_out = parallel::par_map(&items, f);
        prop_assert_eq!(sequential.len(), parallel_out.len());
        for (s, p) in sequential.iter().zip(&parallel_out) {
            prop_assert_eq!(s.0, p.0);
            prop_assert_eq!(s.1.to_bits(), p.1.to_bits());
        }
    }

    #[test]
    fn par_chunks_covers_input_in_order(
        items in prop::collection::vec(0u64..10_000, 1..200),
        chunk in 1usize..32,
    ) {
        let chunks = parallel::par_chunks(&items, chunk, |i, c| (i, c.to_vec()));
        let reassembled: Vec<u64> = chunks.iter().flat_map(|(_, c)| c.iter().copied()).collect();
        prop_assert_eq!(&reassembled, &items);
        for (expect, (idx, _)) in chunks.iter().enumerate() {
            prop_assert_eq!(expect, *idx);
        }
    }

    // ---------- vocabulary -----------------------------------------------------

    #[test]
    fn vocabulary_ids_roundtrip(words in prop::collection::vec("[a-z]{1,8}", 1..50)) {
        let mut vocab = Vocabulary::new();
        for w in &words {
            vocab.get_or_insert(w);
        }
        for w in &words {
            let id = vocab.id_of(w).expect("inserted word has an id");
            prop_assert_eq!(vocab.word_of(id), Some(w.as_str()));
        }
        prop_assert!(vocab.len() <= words.len());
    }

    // ---------- overlay --------------------------------------------------------

    #[test]
    fn chord_lookup_agrees_with_brute_force_owner(
        num_peers in 2u64..80,
        keys in prop::collection::vec(any::<u64>(), 1..20),
        from in any::<u64>(),
    ) {
        let overlay = ChordOverlay::with_peers((0..num_peers).map(PeerId));
        let source = PeerId(from % num_peers);
        for key in keys {
            let result = overlay.lookup(source, key).expect("lookup succeeds");
            // Brute force: smallest ring key >= key, else global minimum.
            let mut ring: Vec<(u64, PeerId)> = (0..num_peers)
                .map(|i| (PeerId(i).ring_key(), PeerId(i)))
                .collect();
            ring.sort_unstable();
            let expected = ring
                .iter()
                .find(|&&(k, _)| k >= key)
                .or_else(|| ring.first())
                .map(|&(_, p)| p)
                .unwrap();
            prop_assert_eq!(result.owner, expected);
            prop_assert!(result.hops() <= num_peers as usize);
        }
    }

    #[test]
    fn super_peer_election_is_stable_and_member_only(
        num_peers in 2u64..60,
        regions in 1usize..12,
    ) {
        let overlay = ChordOverlay::with_peers((0..num_peers).map(PeerId));
        let dir = SuperPeerDirectory::new(regions);
        let elected = dir.elect(&overlay);
        prop_assert_eq!(elected.len(), regions.max(1));
        for sp in elected {
            prop_assert!(overlay.contains(sp));
        }
    }

    // ---------- metrics --------------------------------------------------------

    #[test]
    fn multilabel_metrics_are_bounded(
        sets in prop::collection::vec(
            (prop::collection::btree_set(0u32..8, 0..4), prop::collection::btree_set(0u32..8, 0..4)),
            1..30,
        ),
    ) {
        let predictions: Vec<BTreeSet<u32>> = sets.iter().map(|(p, _)| p.clone()).collect();
        let truths: Vec<BTreeSet<u32>> = sets.iter().map(|(_, t)| t.clone()).collect();
        let universe: BTreeSet<u32> = (0..8).collect();
        let m = MultiLabelMetrics::evaluate(&predictions, &truths, &universe);
        for value in [m.micro_f1(), m.macro_f1(), m.hamming_loss(), m.subset_accuracy()] {
            prop_assert!((0.0..=1.0).contains(&value), "metric out of range: {value}");
        }
        // Perfect prediction of itself is always perfect.
        let perfect = MultiLabelMetrics::evaluate(&truths, &truths, &universe);
        prop_assert_eq!(perfect.micro_f1(), 1.0);
    }

    // ---------- churn ----------------------------------------------------------

    #[test]
    fn churn_timeline_intervals_are_consistent_with_events(
        mean_session in 10.0f64..500.0,
        mean_offline in 10.0f64..500.0,
        peers in 1usize..20,
    ) {
        let model = ChurnModel::Exponential {
            mean_session_secs: mean_session,
            mean_offline_secs: mean_offline,
        };
        let horizon = SimTime::from_secs(2_000);
        let tl = ChurnTimeline::generate(model, peers, horizon, 7);
        let events = tl.events();
        for w in events.windows(2) {
            prop_assert!(w[0].time <= w[1].time);
        }
        // Just after a join event the peer is online; just after a leave it is not.
        for e in events.iter().take(50) {
            let probe = SimTime::from_micros(e.time.as_micros().saturating_add(1));
            if probe < horizon {
                prop_assert_eq!(tl.is_online(e.peer, probe), e.online);
            }
        }
        prop_assert!(tl.online_peers(SimTime::from_secs(1_000)).len() <= tl.num_peers());
    }

    // ---------- adversarial workload generators ---------------------------------

    #[test]
    fn bursty_arrivals_stay_sorted_and_inside_the_horizon(
        num_bursts in 1usize..5,
        width_secs in 10.0f64..500.0,
        attraction in 0.05f64..1.0,
        horizon_secs in 200.0f64..3_000.0,
        seed in any::<u64>(),
    ) {
        let corpus = arrival_corpus();
        let spec = ArrivalSpec {
            horizon_secs,
            bursts: Some(BurstSpec { num_bursts, width_secs, attraction }),
            seed,
            ..ArrivalSpec::default()
        };
        let timeline = ArrivalTimeline::generate(corpus, &spec);
        let arrivals = timeline.arrivals();
        // Exactly one arrival per document, every document covered.
        prop_assert_eq!(arrivals.len(), corpus.len());
        let docs: BTreeSet<_> = arrivals.iter().map(|a| a.doc).collect();
        prop_assert_eq!(docs.len(), corpus.len());
        // Sorted, and strictly inside [0, horizon).
        let horizon_micros = (horizon_secs * 1e6) as u64;
        for w in arrivals.windows(2) {
            prop_assert!(w[0].time_micros <= w[1].time_micros);
        }
        for a in arrivals {
            prop_assert!(a.time_micros < horizon_micros);
        }
    }

    #[test]
    fn arrival_replay_is_deterministic_for_any_seed(
        seed in any::<u64>(),
        num_bursts in 1usize..4,
    ) {
        let corpus = arrival_corpus();
        let spec = ArrivalSpec {
            bursts: Some(BurstSpec { num_bursts, ..BurstSpec::default() }),
            seed,
            ..ArrivalSpec::default()
        };
        let a = ArrivalTimeline::generate(corpus, &spec);
        let b = ArrivalTimeline::generate(corpus, &spec);
        prop_assert_eq!(a.arrivals(), b.arrivals());
    }

    #[test]
    fn imitation_keeps_every_tag_set_valid(
        imitation in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let spec = skewed_spec(imitation, None, seed);
        let corpus = CorpusGenerator::new(spec.clone()).generate();
        for doc in corpus.documents() {
            // Every document keeps at least one tag, never exceeds the cap,
            // and every tag stays inside the declared universe.
            prop_assert!(!doc.tags.is_empty());
            prop_assert!(doc.tags.len() <= spec.max_tags_per_doc);
            let ids = corpus.tag_ids_of(doc.id);
            prop_assert_eq!(ids.len(), doc.tags.len());
            for &t in &ids {
                prop_assert!((t as usize) < spec.num_tags);
            }
        }
    }

    #[test]
    fn community_membership_covers_all_users_and_tags(
        num_communities in 1usize..9,
        tag_overlap in 0.0f64..1.0,
        cross in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let spec = skewed_spec(
            0.0,
            Some(CommunitySpec {
                num_communities,
                tag_overlap,
                cross_community_ratio: cross,
            }),
            seed,
        );
        let gen = CorpusGenerator::new(spec.clone());
        let members = gen.community_assignments().expect("communities configured");
        // Every user is assigned to a community in range.
        prop_assert_eq!(members.len(), spec.num_users);
        let k = num_communities.min(spec.num_users).max(1);
        for &c in &members {
            prop_assert!(c < k);
        }
        // Round-robin assignment covers every community.
        let used: BTreeSet<_> = members.iter().copied().collect();
        prop_assert_eq!(used.len(), k);
        // The community pools jointly cover the whole tag universe.
        let pools = gen.community_tag_pools().expect("communities configured");
        let covered: BTreeSet<usize> = pools.iter().flatten().copied().collect();
        prop_assert_eq!(covered.len(), spec.num_tags);
        // And generation under these knobs still yields a corpus whose tags
        // stay inside the universe.
        let corpus = gen.generate();
        for doc in corpus.documents() {
            prop_assert!(!doc.tags.is_empty());
            for &t in &corpus.tag_ids_of(doc.id) {
                prop_assert!((t as usize) < spec.num_tags);
            }
        }
    }

    // ---------- learning sanity -------------------------------------------------

    #[test]
    fn linear_svm_always_separates_two_distant_points(
        a in 0.5f64..3.0,
        b in -3.0f64..-0.5,
    ) {
        let xs = [
            SparseVector::from_pairs([(0u32, a)]),
            SparseVector::from_pairs([(0u32, b)]),
        ];
        let data = MultiLabelDataset::from_examples(vec![
            MultiLabelExample::new(xs[0].clone(), [0]),
            MultiLabelExample::new(xs[1].clone(), [1]),
        ]);
        let model = OneVsAllTrainer::default().train_linear_csr(&data, &LinearSvmTrainer::default());
        let tag0 = model.classifier(0).expect("tag 0 trains");
        prop_assert!(tag0.predict(&xs[0]));
        prop_assert!(!tag0.predict(&xs[1]));
    }
}
