//! The P2PDocTagger orchestrator.
//!
//! Ties the preprocessing, P2P learning and tagging stages together, following
//! the workflow of §2: users select documents → documents are preprocessed →
//! some are manually tagged → a global classification model is constructed in
//! a distributed manner → remaining documents are tagged automatically → users
//! refine tags and the models adapt.

use crate::config::DocTaggerConfig;
use crate::library::{DocumentLibrary, TagSource};
use crate::refine::{Refinement, RefinementLog};
use crate::suggest::SuggestionCloud;
use crate::tagcloud::TagCloud;
use crate::tagstore::TagStore;
use dataset::{Corpus, DocumentId, TrainTestSplit, VectorizedCorpus};
use ml::{MultiLabelDataset, MultiLabelExample, MultiLabelMetrics};
use p2pclassify::{P2PTagClassifier, ProtocolError};
use p2psim::{P2PNetwork, PeerId, SimConfig, SimStats};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Result of an auto-tagging pass over the untagged documents.
#[derive(Debug, Clone)]
pub struct AutoTagOutcome {
    /// Quality of the automatic tags against the held-out ground truth.
    pub metrics: MultiLabelMetrics,
    /// Number of documents successfully tagged.
    pub tagged: usize,
    /// Number of documents whose tagging failed (e.g. the peer or every model
    /// holder was offline). Failed documents count as "no tags assigned" in
    /// the metrics.
    pub failed: usize,
    /// Failures caused by the requesting peer itself being offline (these say
    /// nothing about the protocol's fault tolerance).
    pub failed_peer_offline: usize,
    /// Failures caused by the tagging service being unreachable (central
    /// server or every super-peer down) — the protocol-side failure mode.
    pub failed_unreachable: usize,
}

/// The automated, distributed collaborative document tagging system.
pub struct P2PDocTagger {
    config: DocTaggerConfig,
    protocol: Box<dyn P2PTagClassifier>,
    corpus: Option<Corpus>,
    vectorized: Option<VectorizedCorpus>,
    network: Option<P2PNetwork>,
    split: Option<TrainTestSplit>,
    library: DocumentLibrary,
    tag_store: TagStore,
    refinements: RefinementLog,
    /// Evaluation tag universe, frozen at [`Self::learn`] time so metric
    /// denominators stay comparable across epochs and protocols (refinements
    /// must not silently grow it).
    eval_universe: Option<BTreeSet<u32>>,
    /// Refinement tags outside the frozen universe, by name: stored for the
    /// library/tag store but excluded from model training and model metrics.
    unseen_refinements: BTreeMap<String, BTreeSet<DocumentId>>,
    learned: bool,
}

impl P2PDocTagger {
    /// Creates a system with the given configuration.
    pub fn new(config: DocTaggerConfig) -> Self {
        let protocol = config.protocol.build();
        Self {
            config,
            protocol,
            corpus: None,
            vectorized: None,
            network: None,
            split: None,
            library: DocumentLibrary::new(),
            tag_store: TagStore::new(),
            refinements: RefinementLog::new(),
            eval_universe: None,
            unseen_refinements: BTreeMap::new(),
            learned: false,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DocTaggerConfig {
        &self.config
    }

    /// The name of the plugged-in P2P classification protocol.
    pub fn protocol_name(&self) -> &'static str {
        self.protocol.name()
    }

    /// Ingests a corpus: runs the preprocessing pipeline over every selected
    /// document and builds the simulated P2P environment (one peer per user
    /// unless an explicit network configuration was provided).
    ///
    /// The system keeps a clone of the [`Corpus`] handle, which shares the
    /// caller's documents: nothing is copied, whatever the corpus' size.
    pub fn ingest(&mut self, corpus: &Corpus) {
        let vectorized = VectorizedCorpus::build(corpus);
        let sim = self.config.network.clone().unwrap_or_else(|| SimConfig {
            num_peers: corpus.num_users().max(1),
            seed: self.config.seed,
            ..SimConfig::default()
        });
        self.network = Some(P2PNetwork::new(sim));
        self.vectorized = Some(vectorized);
        self.corpus = Some(corpus.clone());
        // The previous corpus' split names document ids this one may not have.
        self.split = None;
        self.library = DocumentLibrary::new();
        self.tag_store = TagStore::new();
        self.refinements = RefinementLog::new();
        self.eval_universe = None;
        self.unseen_refinements = BTreeMap::new();
        self.learned = false;
    }

    /// Ingests a corpus held in an [`Arc`]: equivalent to [`Self::ingest`],
    /// which shares the documents too.
    pub fn ingest_shared(&mut self, corpus: Arc<Corpus>) {
        self.ingest(&corpus);
    }

    /// Number of peers in the simulated network (0 before ingestion).
    pub fn num_peers(&self) -> usize {
        self.network.as_ref().map_or(0, P2PNetwork::num_peers)
    }

    /// Runs the P2P collaborative learning phase: the training side of `split`
    /// plays the role of the users' manually tagged documents; the global
    /// classification model is then constructed in a distributed manner.
    pub fn learn(&mut self, split: &TrainTestSplit) -> Result<(), ProtocolError> {
        let corpus = self
            .corpus
            .as_ref()
            .expect("ingest() must be called before learn()");
        let vectorized = self.vectorized.as_ref().expect("vectorized corpus present");
        let network = self.network.as_mut().expect("network present");

        // Record the manual tags in the library and the file-metadata store.
        for &doc in &split.train {
            let d = corpus
                .document(doc)
                .expect("split refers to corpus documents");
            self.library
                .assign(doc, d.user, d.tags.clone(), TagSource::Manual);
            self.tag_store
                .set_tags(&Self::path_of(doc, d.user), d.tags.iter().cloned());
        }

        // Each user's peer contributes its manually tagged documents.
        let num_peers = network.num_peers();
        let mut peer_data: Vec<MultiLabelDataset> = vec![MultiLabelDataset::new(); num_peers];
        for &doc in &split.train {
            let d = corpus
                .document(doc)
                .expect("split refers to corpus documents");
            let peer = d.user % num_peers;
            peer_data[peer].push(vectorized.example(doc));
        }

        self.protocol.train(network, &peer_data)?;
        self.split = Some(split.clone());
        // Freeze the evaluation universe: refinements after this point may
        // introduce tags the models were never trained on, and those must not
        // change metric denominators across epochs.
        self.eval_universe = Some((0..corpus.num_tags() as u32).collect());
        self.learned = true;
        Ok(())
    }

    /// Folds newly arrived, manually tagged documents into the already
    /// trained models — the streaming counterpart of [`Self::learn`].
    ///
    /// The documents' tags are recorded as manual, the examples are grouped
    /// per owning peer and handed to
    /// [`P2PTagClassifier::train_incremental`], which warm-starts from the
    /// stored models instead of retraining from scratch. The split's train
    /// side grows (and its test side shrinks) accordingly, so a later
    /// [`Self::auto_tag_all`] does not evaluate on documents the models were
    /// trained on.
    /// An empty `new_train` is not a no-op: the protocol still gets an
    /// incremental round, which flushes any backlog from peers that were
    /// offline when their data arrived and have since returned.
    pub fn learn_incremental(&mut self, new_train: &[DocumentId]) -> Result<(), ProtocolError> {
        if !self.learned {
            return Err(ProtocolError::NotTrained);
        }
        let corpus = self.corpus.as_ref().expect("ingested");
        let vectorized = self.vectorized.as_ref().expect("ingested");
        let network = self.network.as_mut().expect("ingested");
        let num_peers = network.num_peers();
        let mut peer_data: Vec<MultiLabelDataset> = vec![MultiLabelDataset::new(); num_peers];
        for &doc in new_train {
            let d = corpus.document(doc).expect("new documents exist in corpus");
            self.library
                .assign(doc, d.user, d.tags.clone(), TagSource::Manual);
            self.tag_store
                .set_tags(&Self::path_of(doc, d.user), d.tags.iter().cloned());
            peer_data[d.user % num_peers].push(vectorized.example(doc));
        }
        self.protocol.train_incremental(network, &peer_data)?;
        if let Some(split) = self.split.as_mut() {
            let added: BTreeSet<DocumentId> = new_train.iter().copied().collect();
            split.test.retain(|d| !added.contains(d));
            split.train.extend(added);
            split.train.sort_unstable();
            split.train.dedup();
        }
        Ok(())
    }

    /// Automatically tags one document on behalf of its owner's peer and
    /// records the result in the library and the tag store.
    pub fn auto_tag(&mut self, doc: DocumentId) -> Result<BTreeSet<String>, ProtocolError> {
        if !self.learned {
            return Err(ProtocolError::NotTrained);
        }
        let tag_ids = {
            let corpus = self.corpus.as_ref().expect("ingested");
            let vectorized = self.vectorized.as_ref().expect("ingested");
            let network = self.network.as_mut().expect("ingested");
            let d = corpus.document(doc).expect("document exists");
            let peer = PeerId::from(d.user % network.num_peers());
            self.protocol
                .predict(network, peer, vectorized.vector(doc))?
        };
        self.record_auto_tags(doc, tag_ids);
        Ok(self.library.tags_of(doc))
    }

    /// Maps predicted tag ids to names and records them for `doc` in the
    /// library and the tag store — the single write path shared by
    /// [`Self::auto_tag`] and [`Self::auto_tag_all`]. Returns the ids of the
    /// corpus tags the document now carries.
    ///
    /// Documents whose latest tags came from the user (`Manual` or `Refined`)
    /// are left untouched and keep their current tags: re-running the
    /// automated tagger must adapt to the user's corrections (§2), not
    /// overwrite them with machine output.
    fn record_auto_tags(&mut self, doc: DocumentId, mut tag_ids: BTreeSet<u32>) -> BTreeSet<u32> {
        let corpus = self.corpus.as_ref().expect("ingested");
        if let Some(entry) = self.library.entry(doc) {
            if matches!(entry.source, TagSource::Manual | TagSource::Refined) {
                return entry.tags.iter().filter_map(|t| corpus.tag_id(t)).collect();
            }
        }
        let user = corpus.document(doc).expect("document exists").user;
        tag_ids.retain(|&t| corpus.tag_name(t).is_some());
        let names: BTreeSet<String> = tag_ids
            .iter()
            .filter_map(|&t| corpus.tag_name(t).map(str::to_string))
            .collect();
        self.tag_store
            .set_tags(&Self::path_of(doc, user), names.iter().cloned());
        self.library.assign(doc, user, names, TagSource::Automatic);
        tag_ids
    }

    /// Automatically tags every untagged (test) document and evaluates the
    /// result against the held-out ground truth.
    ///
    /// The whole test set is handed to the protocol as one batch
    /// ([`P2PTagClassifier::predict_batch`]): local-only prediction fans the
    /// documents out across cores, while PACE and the query-paying protocols
    /// run their per-document loop.
    /// Library updates, tag-store writes and metric accounting then apply in
    /// document order, so the outcome is identical to calling
    /// [`Self::auto_tag`] per document.
    pub fn auto_tag_all(&mut self) -> Result<AutoTagOutcome, ProtocolError> {
        let test = self.split.clone().ok_or(ProtocolError::NotTrained)?.test;
        self.auto_tag_docs(&test)
    }

    /// Automatically tags the given documents (a streaming epoch's worth of
    /// auto-tag requests) and evaluates against the held-out ground truth
    /// over the evaluation universe frozen at [`Self::learn`] time.
    pub fn auto_tag_docs(&mut self, docs: &[DocumentId]) -> Result<AutoTagOutcome, ProtocolError> {
        if !self.learned {
            return Err(ProtocolError::NotTrained);
        }
        let universe = self
            .eval_universe
            .clone()
            .ok_or(ProtocolError::NotTrained)?;
        let results = {
            let corpus = self.corpus.as_ref().expect("ingested");
            let vectorized = self.vectorized.as_ref().expect("ingested");
            let network = self.network.as_mut().expect("ingested");
            let num_peers = network.num_peers();
            let requests: Vec<(PeerId, &textproc::SparseVector)> = docs
                .iter()
                .map(|&doc| {
                    let d = corpus.document(doc).expect("document exists");
                    (PeerId::from(d.user % num_peers), vectorized.vector(doc))
                })
                .collect();
            self.protocol.predict_batch(network, &requests)
        };

        let mut predictions = Vec::with_capacity(docs.len());
        let mut truths = Vec::with_capacity(docs.len());
        let mut tagged = 0;
        let mut failed = 0;
        let mut failed_peer_offline = 0;
        let mut failed_unreachable = 0;
        for (&doc, result) in docs.iter().zip(results) {
            match result {
                Ok(tag_ids) => {
                    tagged += 1;
                    predictions.push(self.record_auto_tags(doc, tag_ids));
                }
                Err(e) => {
                    failed += 1;
                    match e {
                        ProtocolError::PeerOffline => failed_peer_offline += 1,
                        _ => failed_unreachable += 1,
                    }
                    predictions.push(BTreeSet::new());
                }
            }
            let vectorized = self.vectorized.as_ref().expect("ingested");
            truths.push(vectorized.tags(doc).clone());
        }
        let metrics = MultiLabelMetrics::evaluate(&predictions, &truths, &universe);
        Ok(AutoTagOutcome {
            metrics,
            tagged,
            failed,
            failed_peer_offline,
            failed_unreachable,
        })
    }

    /// Builds the "Suggestion Cloud" for a document: scored tag suggestions,
    /// filtered by the confidence slider at `threshold` (defaults to the
    /// configured threshold when `None`).
    pub fn suggest(
        &mut self,
        doc: DocumentId,
        threshold: Option<f64>,
    ) -> Result<SuggestionCloud, ProtocolError> {
        if !self.learned {
            return Err(ProtocolError::NotTrained);
        }
        let corpus = self.corpus.as_ref().expect("ingested");
        let vectorized = self.vectorized.as_ref().expect("ingested");
        let network = self.network.as_mut().expect("ingested");
        let d = corpus.document(doc).expect("document exists");
        let peer = PeerId::from(d.user % network.num_peers());
        let scores = self
            .protocol
            .scores(network, peer, vectorized.vector(doc))?;
        let threshold = threshold.unwrap_or(self.config.confidence_threshold);
        Ok(SuggestionCloud::build(&scores, threshold, |t| {
            corpus.tag_name(t).map(str::to_string)
        }))
    }

    /// Applies a user's tag correction: the library and tag store are updated,
    /// the correction is logged, and the classification models adapt. This is
    /// the one-correction case of [`Self::refine_batch`].
    ///
    /// Tags inside the evaluation universe frozen at [`Self::learn`] time are
    /// folded into the models as a corrected example. Tags *outside* it
    /// (names the corpus has never seen) are routed explicitly: they reach
    /// the library and the tag store — the user's view — and are tracked in
    /// [`Self::unseen_tag_refinements`], but they are not interned into the
    /// corpus and never enter the models or the metric universe, so micro-F1
    /// keeps the same denominator across epochs.
    pub fn refine(
        &mut self,
        doc: DocumentId,
        corrected: BTreeSet<String>,
    ) -> Result<(), ProtocolError> {
        let mut results = self.refine_batch(vec![(doc, corrected)]);
        results.pop().expect("one result per correction")
    }

    /// Applies a batch of tag corrections `(document, corrected tags)`, in
    /// order, as one protocol refine batch
    /// ([`P2PTagClassifier::refine_batch`]), and returns one result per
    /// correction in input order. Each correction that succeeds is applied
    /// as [`Self::refine`] applies it, in batch order (a document corrected
    /// twice records the first correction's tags as the second's `before`);
    /// one that fails leaves no trace in the library, the tag store, the
    /// refinement log or the unseen-tag map.
    pub fn refine_batch(
        &mut self,
        corrections: Vec<(DocumentId, BTreeSet<String>)>,
    ) -> Vec<Result<(), ProtocolError>> {
        if !self.learned {
            return corrections
                .iter()
                .map(|_| Err(ProtocolError::NotTrained))
                .collect();
        }
        let corpus = self.corpus.as_ref().expect("ingested");
        let vectorized = self.vectorized.as_ref().expect("ingested");
        let network = self.network.as_mut().expect("ingested");
        // Each correction's owner, example and unseen tag names.
        let prepared: Vec<(usize, MultiLabelExample, Vec<String>)> = corrections
            .iter()
            .map(|(doc, corrected)| {
                let user = corpus.document(*doc).expect("document exists").user;
                let mut tag_ids = BTreeSet::new();
                let mut unseen = Vec::new();
                for t in corrected {
                    match corpus.tag_id(t) {
                        Some(id) => {
                            tag_ids.insert(id);
                        }
                        None => unseen.push(t.clone()),
                    }
                }
                let example = MultiLabelExample::new(vectorized.vector(*doc).clone(), tag_ids);
                (user, example, unseen)
            })
            .collect();
        // An example whose known-tag set is empty is still informative: the
        // user is saying none of the modelled tags apply.
        let peers = network.num_peers();
        let requests: Vec<(PeerId, &MultiLabelExample)> = prepared
            .iter()
            .map(|(user, example, _)| (PeerId::from(user % peers), example))
            .collect();
        let results = self.protocol.refine_batch(network, &requests);
        let applied = corrections.into_iter().zip(prepared).zip(&results);
        for (((doc, corrected), (user, _, unseen)), result) in applied {
            if result.is_err() {
                continue;
            }
            let before = self.library.tags_of(doc);
            self.library
                .assign(doc, user, corrected.clone(), TagSource::Refined);
            self.tag_store
                .set_tags(&Self::path_of(doc, user), corrected.iter().cloned());
            for name in unseen {
                self.unseen_refinements.entry(name).or_default().insert(doc);
            }
            self.refinements.record(Refinement {
                doc,
                user,
                before,
                after: corrected,
            });
        }
        results
    }

    /// Advances simulated time (churn takes effect), e.g. between the learning
    /// phase and a later tagging phase.
    ///
    /// Fault events scheduled inside the window are executed and recovered
    /// here: a crash-restarted peer has its in-memory protocol state wiped
    /// (the data a real process would lose) and then runs digest-based
    /// anti-entropy against the overlay; when a partition heals, the peers on
    /// the minority side of the cut re-sync what they missed. With no fault
    /// plan configured both drain queues stay empty and this is exactly the
    /// old `net.advance(dt)`.
    pub fn advance_time(&mut self, dt: p2psim::SimTime) {
        let Some(net) = self.network.as_mut() else {
            return;
        };
        net.advance(dt);
        for peer in net.drain_crash_restarts() {
            self.protocol.on_crash_restart(net, peer);
            self.protocol.resync(net, peer);
        }
        for window in net.drain_healed_partitions() {
            let (mut cut, mut rest) = (Vec::new(), Vec::new());
            for peer in net.peers() {
                if window.scope.side(peer) {
                    cut.push(peer);
                } else {
                    rest.push(peer);
                }
            }
            // The smaller side missed the majority's traffic.
            let minority = if cut.len() <= rest.len() { cut } else { rest };
            for peer in minority {
                if net.is_online(peer) {
                    self.protocol.resync(net, peer);
                }
            }
        }
    }

    /// The document library (the "Library" navigation component).
    pub fn library(&self) -> &DocumentLibrary {
        &self.library
    }

    /// The file-metadata tag store.
    pub fn tag_store(&self) -> &TagStore {
        &self.tag_store
    }

    /// The refinement log.
    pub fn refinements(&self) -> &RefinementLog {
        &self.refinements
    }

    /// Refinement tags outside the frozen evaluation universe, with the
    /// documents they were applied to. These are visible to the user (library
    /// and tag store) but excluded from model training and model metrics.
    pub fn unseen_tag_refinements(&self) -> &BTreeMap<String, BTreeSet<DocumentId>> {
        &self.unseen_refinements
    }

    /// The evaluation tag universe frozen at [`Self::learn`] time (`None`
    /// before learning).
    pub fn eval_universe(&self) -> Option<&BTreeSet<u32>> {
        self.eval_universe.as_ref()
    }

    /// The current tag cloud (the "Tag Cloud" navigation component).
    pub fn tag_cloud(&self) -> TagCloud {
        TagCloud::from_library(&self.library)
    }

    /// The plugged protocol's reliable-link counters: sends, losses,
    /// retransmissions, corrupted frames rejected, give-ups, re-syncs. All
    /// zero for local-only (it never sends) and for protocols that have not
    /// communicated yet.
    pub fn protocol_link_stats(&self) -> p2pclassify::LinkStats {
        self.protocol.link_stats()
    }

    /// Communication statistics accumulated so far (empty before ingestion).
    pub fn network_stats(&self) -> SimStats {
        self.network
            .as_ref()
            .map(|n| n.stats().clone())
            .unwrap_or_default()
    }

    /// The simulated network, when ingested (read access for experiments).
    pub fn network(&self) -> Option<&P2PNetwork> {
        self.network.as_ref()
    }

    /// The ingested corpus, if any.
    pub fn corpus(&self) -> Option<&Corpus> {
        self.corpus.as_ref()
    }

    /// The synthetic file path under which a document's tags are stored as
    /// metadata.
    pub fn path_of(doc: DocumentId, user: usize) -> String {
        format!("/home/user{user}/documents/doc{doc:05}.txt")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolKind;
    use dataset::{CorpusGenerator, CorpusSpec};

    fn system_with(protocol: ProtocolKind) -> (P2PDocTagger, Corpus, TrainTestSplit) {
        let corpus = CorpusGenerator::new(CorpusSpec::tiny()).generate();
        let split = TrainTestSplit::demo_protocol(&corpus, 3);
        let mut sys = P2PDocTagger::new(DocTaggerConfig {
            protocol,
            ..Default::default()
        });
        sys.ingest(&corpus);
        (sys, corpus, split)
    }

    #[test]
    fn ingest_shares_the_callers_corpus() {
        let (sys, corpus, _) = system_with(ProtocolKind::pace());
        assert!(sys.corpus().unwrap().shares_storage_with(&corpus));
    }

    #[test]
    fn ingest_and_ingest_shared_run_alike() {
        let (mut by_ref, corpus, split) = system_with(ProtocolKind::pace());
        let mut shared = P2PDocTagger::new(DocTaggerConfig {
            protocol: ProtocolKind::pace(),
            ..Default::default()
        });
        shared.ingest_shared(Arc::new(corpus.clone()));
        assert!(shared.corpus().unwrap().shares_storage_with(&corpus));
        by_ref.learn(&split).unwrap();
        shared.learn(&split).unwrap();
        let a = by_ref.auto_tag_all().unwrap();
        let b = shared.auto_tag_all().unwrap();
        assert_eq!(a.metrics, b.metrics);
        assert_eq!((a.tagged, a.failed), (b.tagged, b.failed));
        let (sa, sb) = (by_ref.network_stats(), shared.network_stats());
        assert_eq!(sa.total_bytes(), sb.total_bytes());
        assert_eq!(sa.total_messages(), sb.total_messages());
    }

    #[test]
    fn reingest_forgets_the_previous_split() {
        let (mut sys, big, split) = system_with(ProtocolKind::pace());
        sys.learn(&split).unwrap();
        sys.auto_tag_all().unwrap();

        let small = CorpusGenerator::new(CorpusSpec {
            num_users: 3,
            ..CorpusSpec::tiny()
        })
        .generate();
        assert!(small.len() < big.len());
        assert!(split.test.iter().any(|&doc| doc >= small.len()));
        sys.ingest(&small);
        // The old split names documents the new corpus does not have.
        assert!(sys.split.is_none());
        assert!(matches!(sys.auto_tag_all(), Err(ProtocolError::NotTrained)));

        let split = TrainTestSplit::demo_protocol(&small, 3);
        sys.learn(&split).unwrap();
        let outcome = sys.auto_tag_all().unwrap();
        assert_eq!(outcome.tagged + outcome.failed, split.test.len());
    }

    #[test]
    fn end_to_end_with_pace() {
        let (mut sys, corpus, split) = system_with(ProtocolKind::pace());
        assert_eq!(sys.num_peers(), corpus.num_users());
        sys.learn(&split).unwrap();
        let outcome = sys.auto_tag_all().unwrap();
        assert_eq!(outcome.tagged + outcome.failed, split.test.len());
        assert_eq!(outcome.failed, 0);
        assert!(
            outcome.metrics.micro_f1() > 0.3,
            "micro-F1 {}",
            outcome.metrics.micro_f1()
        );
        // Every test document is now in the library with automatic tags.
        assert!(sys.library().auto_tagged_count() >= split.test.len());
        // Tags are persisted as file metadata too.
        assert_eq!(sys.tag_store().len(), corpus.len());
    }

    #[test]
    fn end_to_end_with_local_baseline_is_worse_than_pace() {
        let (mut pace_sys, _, split) = system_with(ProtocolKind::pace());
        pace_sys.learn(&split).unwrap();
        let pace = pace_sys.auto_tag_all().unwrap();

        let (mut local_sys, _, split) = system_with(ProtocolKind::local_only());
        local_sys.learn(&split).unwrap();
        let local = local_sys.auto_tag_all().unwrap();

        eprintln!(
            "pace P={:.3} R={:.3} F1={:.3} macro={:.3} | local P={:.3} R={:.3} F1={:.3} macro={:.3}",
            pace.metrics.micro_precision(),
            pace.metrics.micro_recall(),
            pace.metrics.micro_f1(),
            pace.metrics.macro_f1(),
            local.metrics.micro_precision(),
            local.metrics.micro_recall(),
            local.metrics.micro_f1(),
            local.metrics.macro_f1(),
        );
        assert!(
            pace.metrics.micro_f1() > local.metrics.micro_f1(),
            "pace {} vs local {}",
            pace.metrics.micro_f1(),
            local.metrics.micro_f1()
        );
    }

    #[test]
    fn suggestions_respect_the_confidence_slider() {
        let (mut sys, _, split) = system_with(ProtocolKind::pace());
        sys.learn(&split).unwrap();
        let doc = split.test[0];
        let permissive = sys.suggest(doc, Some(0.0)).unwrap();
        let strict = sys.suggest(doc, Some(0.99)).unwrap();
        assert!(permissive.accepted().count() >= strict.accepted().count());
        assert_eq!(permissive.entries().len(), strict.entries().len());
    }

    #[test]
    fn refinement_is_recorded_and_changes_the_library() {
        let (mut sys, corpus, split) = system_with(ProtocolKind::pace());
        sys.learn(&split).unwrap();
        let doc = split.test[0];
        sys.auto_tag(doc).unwrap();
        let mut corrected = sys.library().tags_of(doc);
        corrected.insert("entirely-new-tag".to_string());
        sys.refine(doc, corrected.clone()).unwrap();
        assert_eq!(sys.library().tags_of(doc), corrected);
        assert_eq!(sys.refinements().len(), 1);
        assert_eq!(sys.library().refined_count(), 1);
        // The new tag becomes part of the system's vocabulary.
        assert!(sys.library().tag_counts().contains_key("entirely-new-tag"));
        // The original corpus is untouched.
        assert!(corpus.tag_id("entirely-new-tag").is_none());
    }

    #[test]
    fn auto_tagging_never_clobbers_manual_or_refined_tags() {
        let (mut sys, _, split) = system_with(ProtocolKind::pace());
        sys.learn(&split).unwrap();
        sys.auto_tag_all().unwrap();
        let doc = split.test[0];
        let manual_doc = split.train[0];
        let corrected: BTreeSet<String> = ["user-truth".to_string()].into();
        sys.refine(doc, corrected.clone()).unwrap();
        let manual_tags = sys.library().tags_of(manual_doc);
        // Re-running the automated tagger must adapt to the correction, not
        // overwrite it with machine output.
        sys.auto_tag_all().unwrap();
        assert_eq!(sys.library().tags_of(doc), corrected);
        assert_eq!(sys.library().entry(doc).unwrap().source, TagSource::Refined);
        assert_eq!(sys.library().tags_of(manual_doc), manual_tags);
        assert_eq!(
            sys.library().entry(manual_doc).unwrap().source,
            TagSource::Manual
        );
        // auto_tag() on a single refined document is likewise a no-op write.
        sys.auto_tag(doc).unwrap();
        assert_eq!(sys.library().tags_of(doc), corrected);
    }

    #[test]
    fn refinements_never_grow_the_frozen_evaluation_universe() {
        let (mut sys, corpus, split) = system_with(ProtocolKind::pace());
        sys.learn(&split).unwrap();
        let universe_before = sys.eval_universe().unwrap().clone();
        assert_eq!(universe_before.len(), corpus.num_tags());
        let first = sys.auto_tag_all().unwrap();

        // Refine two documents with a brand-new tag name.
        for &doc in &split.test[..2] {
            let mut tags = sys.library().tags_of(doc);
            tags.insert("never-seen-before".to_string());
            sys.refine(doc, tags).unwrap();
        }
        // The corpus, and therefore the evaluation universe, are unchanged.
        assert!(sys.corpus().unwrap().tag_id("never-seen-before").is_none());
        assert_eq!(sys.eval_universe().unwrap(), &universe_before);
        let unseen = sys.unseen_tag_refinements();
        assert_eq!(unseen.len(), 1);
        assert_eq!(unseen["never-seen-before"].len(), 2);

        // Metrics after the refinement keep the same per-tag shape: same
        // number of per-tag entries as before (the denominator is stable).
        let second = sys.auto_tag_all().unwrap();
        assert_eq!(
            first.metrics.per_tag().len(),
            second.metrics.per_tag().len()
        );
    }

    #[test]
    fn incremental_learning_extends_the_training_side() {
        let (mut sys, _, mut split) = system_with(ProtocolKind::pace());
        // Hold back the last few training documents and feed them
        // incrementally after the initial learn.
        let held_back: Vec<DocumentId> = split.train.split_off(split.train.len() - 4);
        sys.learn(&split).unwrap();
        let baseline = sys.auto_tag_all().unwrap();
        sys.learn_incremental(&held_back).unwrap();
        // The held-back documents are now manual training docs...
        for &doc in &held_back {
            assert_eq!(sys.library().entry(doc).unwrap().source, TagSource::Manual);
        }
        let outcome = sys.auto_tag_all().unwrap();
        // ...and the warm-started models still tag the remaining test set at
        // comparable quality.
        assert!(outcome.metrics.micro_f1() > baseline.metrics.micro_f1() - 0.1);
        assert_eq!(outcome.tagged + outcome.failed, split.test.len());
        // Before learn(), the incremental path refuses to run.
        let corpus = CorpusGenerator::new(CorpusSpec::tiny()).generate();
        let mut fresh = P2PDocTagger::new(DocTaggerConfig::default());
        fresh.ingest(&corpus);
        assert!(matches!(
            fresh.learn_incremental(&[0]).unwrap_err(),
            ProtocolError::NotTrained
        ));
    }

    #[test]
    fn tag_cloud_reflects_assigned_tags() {
        let (mut sys, _, split) = system_with(ProtocolKind::pace());
        sys.learn(&split).unwrap();
        sys.auto_tag_all().unwrap();
        let cloud = sys.tag_cloud();
        assert!(cloud.num_tags() > 0);
        assert!(cloud.num_edges() > 0, "multi-tag documents create edges");
    }

    #[test]
    fn communication_is_accounted_per_protocol() {
        let (mut pace_sys, _, split) = system_with(ProtocolKind::pace());
        pace_sys.learn(&split).unwrap();
        assert!(pace_sys.network_stats().total_bytes() > 0);

        let (mut local_sys, _, split) = system_with(ProtocolKind::local_only());
        local_sys.learn(&split).unwrap();
        assert_eq!(local_sys.network_stats().total_bytes(), 0);
    }

    #[test]
    fn auto_tag_before_learn_fails() {
        let corpus = CorpusGenerator::new(CorpusSpec::tiny()).generate();
        let mut sys = P2PDocTagger::new(DocTaggerConfig::default());
        sys.ingest(&corpus);
        assert!(matches!(
            sys.auto_tag(0).unwrap_err(),
            ProtocolError::NotTrained
        ));
    }

    /// A learned, auto-tagged CEMPaR system on a churned network, advanced
    /// until owners have gone offline. Deterministic: two calls build equal
    /// systems.
    fn churned_cempar_system() -> (P2PDocTagger, TrainTestSplit) {
        use p2psim::churn::ChurnModel;
        let corpus = CorpusGenerator::new(CorpusSpec {
            num_tags: 4,
            num_users: 12,
            min_docs_per_user: 8,
            max_docs_per_user: 12,
            words_per_doc: 30,
            ..CorpusSpec::tiny()
        })
        .generate();
        let split = TrainTestSplit::stratified_by_user(&corpus, 0.4, 9);
        let mut sys = P2PDocTagger::new(DocTaggerConfig {
            protocol: ProtocolKind::cempar(),
            network: Some(SimConfig {
                num_peers: corpus.num_users(),
                churn: ChurnModel::Exponential {
                    mean_session_secs: 900.0,
                    mean_offline_secs: 300.0,
                },
                horizon_secs: 100_000,
                seed: 46,
                ..SimConfig::default()
            }),
            ..Default::default()
        });
        sys.ingest(&corpus);
        sys.learn(&split).unwrap();
        sys.auto_tag_all().unwrap();
        sys.advance_time(p2psim::SimTime::from_secs(900));
        (sys, split)
    }

    #[test]
    fn refine_batch_equals_refining_each_document() {
        let (mut batched, split) = churned_cempar_system();
        let (mut one_by_one, _) = churned_cempar_system();
        let net = batched.network().unwrap();
        let corpus = batched.corpus().unwrap();
        let online = |doc: &&DocumentId| {
            let user = corpus.document(**doc).unwrap().user;
            net.is_online(PeerId::from(user % net.num_peers()))
        };
        let reachable: Vec<DocumentId> = split.test.iter().filter(online).copied().collect();
        let offline = *split
            .test
            .iter()
            .find(|d| !online(d))
            .expect("an offline owner");
        let truth = |doc: DocumentId| corpus.document(doc).unwrap().tags.clone();
        let (a, b) = (reachable[0], reachable[1]);
        let mut with_unseen = truth(a);
        with_unseen.insert("never-seen-before".to_string());
        let corrections = vec![
            (a, with_unseen),
            (offline, truth(offline)),
            (b, truth(b)),
            (a, truth(a)),
            (reachable[2], BTreeSet::new()),
        ];

        let want: Vec<_> = corrections
            .iter()
            .map(|(doc, tags)| one_by_one.refine(*doc, tags.clone()))
            .collect();
        let got = batched.refine_batch(corrections);
        assert_eq!(got, want);
        for (i, result) in got.iter().enumerate() {
            let expected = if i == 1 {
                Err(ProtocolError::PeerOffline)
            } else {
                Ok(())
            };
            assert_eq!(*result, expected, "correction {i}");
        }

        let entries = |sys: &P2PDocTagger| sys.library().iter().cloned().collect::<Vec<_>>();
        assert_eq!(entries(&batched), entries(&one_by_one));
        assert_eq!(
            batched.tag_store().export(),
            one_by_one.tag_store().export()
        );
        assert_eq!(batched.refinements(), one_by_one.refinements());
        assert_eq!(
            batched.unseen_tag_refinements(),
            one_by_one.unseen_tag_refinements()
        );
        let (got, want) = (batched.network_stats(), one_by_one.network_stats());
        assert_eq!(got.total_bytes(), want.total_bytes());
        assert_eq!(got.total_messages(), want.total_messages());
        // The second correction of `a` saw the first one's tags as `before`;
        // the failed one left no trace.
        let log: Vec<&Refinement> = batched.refinements().iter().collect();
        assert_eq!(log.len(), 4);
        assert_eq!(log[2].before, log[0].after);
        assert!(log.iter().all(|r| r.doc != offline));
        assert_ne!(
            batched.library().entry(offline).map(|e| e.source),
            Some(TagSource::Refined)
        );
        assert_eq!(
            batched.unseen_tag_refinements()["never-seen-before"],
            BTreeSet::from([a])
        );
        assert!(batched.refine_batch(Vec::new()).is_empty());
    }

    #[test]
    fn cempar_end_to_end_smoke() {
        // CEMPaR with kernel SVMs is heavier; use a small corpus and just check
        // it runs end to end and beats random guessing.
        let corpus = CorpusGenerator::new(CorpusSpec {
            num_tags: 4,
            num_users: 6,
            min_docs_per_user: 12,
            max_docs_per_user: 18,
            words_per_doc: 30,
            ..CorpusSpec::tiny()
        })
        .generate();
        let split = TrainTestSplit::stratified_by_user(&corpus, 0.3, 9);
        let mut sys = P2PDocTagger::new(DocTaggerConfig {
            protocol: ProtocolKind::cempar(),
            ..Default::default()
        });
        sys.ingest(&corpus);
        sys.learn(&split).unwrap();
        let outcome = sys.auto_tag_all().unwrap();
        assert!(outcome.tagged > 0);
        assert!(
            outcome.metrics.micro_f1() > 0.2,
            "micro-F1 {}",
            outcome.metrics.micro_f1()
        );
    }
}
