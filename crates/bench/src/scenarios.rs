//! Scenario regression matrix: the four protocols replayed over the
//! adversarial-workload scenarios of [`crate::workload::ScenarioSpec`].
//!
//! Each cell of the matrix streams one scenario's corpus through
//! [`doctagger::SessionDriver`] with one protocol and records the stratified
//! quality views the skewed regimes are designed to separate: overall
//! micro/macro-F1, head vs tail macro-F1 (tags split by ground-truth
//! popularity rank), and the pooled F1 of the cold-start peers (the quartile
//! with the fewest manual taggings). The paper's central claim — collaborative
//! tagging beats isolated per-peer learning — should *widen* on tail tags and
//! cold-start peers under skew, and that ordering is what `tests/scenarios.rs`
//! and the `scenarios` bin pin.
//!
//! The binary writes `BENCH_scenarios.json` at the repository root;
//! `EXPERIMENTS.md` §C1 records a captured run.

use crate::workload::{Scale, ScenarioSpec};
use dataset::CorpusGenerator;
use doctagger::SessionDriver;
use std::time::Instant;

/// Fraction of positive-support tags counted as the "head" of the popularity
/// ranking; the rest are the tail.
pub const HEAD_FRACTION: f64 = 0.3;

/// Fraction of peers (those with the fewest manual taggings) pooled into the
/// cold-start stratum.
pub const COLD_START_FRACTION: f64 = 0.25;

/// The overlay architecture a protocol routes over, as a column label: the
/// flat-DHT ensemble (PACE) rides the Chord ring, the cascade (CEMPaR) a
/// super-peer hierarchy, the centralized reference a star, and local-only
/// nothing at all. The overlay-churn regime exists to separate the first two.
pub fn overlay_of(protocol: &str) -> &'static str {
    match protocol {
        "pace" => "chord-dht",
        "cempar" => "super-peer",
        "centralized" => "star",
        _ => "none",
    }
}

/// One protocol's stratified quality numbers on one scenario.
#[derive(Debug, Clone)]
pub struct ProtocolCell {
    /// Protocol name.
    pub protocol: String,
    /// Overlay architecture column label (see [`overlay_of`]).
    pub overlay: &'static str,
    /// Overall micro-averaged F1 over every auto-tag request.
    pub micro_f1: f64,
    /// Overall macro-averaged F1.
    pub macro_f1: f64,
    /// Macro-F1 over the head (most popular) tags.
    pub head_macro_f1: f64,
    /// Macro-F1 over the tail (rarest positive-support) tags.
    pub tail_macro_f1: f64,
    /// Number of head tags in the split.
    pub head_tags: usize,
    /// Number of tail tags in the split.
    pub tail_tags: usize,
    /// Macro-F1 pooled over the cold-start peers.
    pub cold_start_macro_f1: f64,
    /// Micro-F1 pooled over the cold-start peers.
    pub cold_start_micro_f1: f64,
    /// Total bytes exchanged over the session.
    pub bytes: u64,
    /// Wall-clock seconds for the session replay.
    pub secs: f64,
}

/// One scenario's row of the matrix: the scenario plus one cell per protocol.
#[derive(Debug, Clone)]
pub struct ScenarioRow {
    /// The scenario replayed.
    pub scenario: ScenarioSpec,
    /// Corpus size in documents.
    pub documents: usize,
    /// Number of peers (= users).
    pub peers: usize,
    /// Number of peers pooled into the cold-start stratum.
    pub cold_peers: usize,
    /// One cell per protocol, in [`crate::workload::standard_protocols`] order.
    pub cells: Vec<ProtocolCell>,
}

impl ScenarioRow {
    /// The cell of a protocol by name, if present.
    pub fn cell(&self, protocol: &str) -> Option<&ProtocolCell> {
        self.cells.iter().find(|c| c.protocol == protocol)
    }
}

/// Number of cold-start peers pooled at a network size (≥ 1).
pub fn cold_peer_count(num_peers: usize) -> usize {
    ((num_peers as f64 * COLD_START_FRACTION).ceil() as usize).clamp(1, num_peers.max(1))
}

/// Replays one scenario with every standard protocol and returns its row.
pub fn measure_scenario(
    scenario: &ScenarioSpec,
    num_users: usize,
    scale: Scale,
    epochs: usize,
    seed: u64,
) -> ScenarioRow {
    let corpus = CorpusGenerator::new(scenario.corpus_spec(num_users, scale, seed)).generate();
    let cold_peers = cold_peer_count(corpus.num_users());
    let cells = crate::workload::standard_protocols(corpus.num_users())
        .into_iter()
        .map(|protocol| {
            let name = protocol.name().to_string();
            let mut driver =
                SessionDriver::new(protocol, scenario.session_config(epochs, seed), &corpus);
            let t = Instant::now();
            let outcome = driver.run().expect("session completes");
            let secs = t.elapsed().as_secs_f64();
            let split = outcome.final_metrics.head_tail(HEAD_FRACTION);
            let cold = outcome.cold_start_metrics(cold_peers);
            ProtocolCell {
                overlay: overlay_of(&name),
                protocol: name,
                micro_f1: outcome.final_micro_f1(),
                macro_f1: outcome.final_macro_f1(),
                head_macro_f1: split.head_macro_f1,
                tail_macro_f1: split.tail_macro_f1,
                head_tags: split.head_tags.len(),
                tail_tags: split.tail_tags.len(),
                cold_start_macro_f1: cold.macro_f1(),
                cold_start_micro_f1: cold.micro_f1(),
                bytes: driver.system().network_stats().total_bytes(),
                secs,
            }
        })
        .collect();
    ScenarioRow {
        scenario: scenario.clone(),
        documents: corpus.len(),
        peers: corpus.num_users(),
        cold_peers,
        cells,
    }
}

/// Renders the matrix as the `BENCH_scenarios.json` document.
pub fn to_json(rows: &[ScenarioRow], epochs: usize, seed: u64) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"experiment\": \"scenarios\",\n");
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"epochs\": {epochs},\n"));
    out.push_str(&format!("  \"head_fraction\": {HEAD_FRACTION},\n"));
    out.push_str(&format!(
        "  \"cold_start_fraction\": {COLD_START_FRACTION},\n"
    ));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"scenario\": \"{}\",\n", r.scenario.name));
        out.push_str(&format!(
            "      \"description\": \"{}\",\n",
            r.scenario.description
        ));
        out.push_str(&format!("      \"skewed\": {},\n", r.scenario.is_skewed()));
        out.push_str(&format!("      \"documents\": {},\n", r.documents));
        out.push_str(&format!("      \"peers\": {},\n", r.peers));
        out.push_str(&format!("      \"cold_peers\": {},\n", r.cold_peers));
        out.push_str("      \"protocols\": [\n");
        for (j, c) in r.cells.iter().enumerate() {
            out.push_str(&format!(
                "        {{\"protocol\": \"{}\", \"overlay\": \"{}\", \"micro_f1\": {:.4}, \"macro_f1\": {:.4}, \"head_macro_f1\": {:.4}, \"tail_macro_f1\": {:.4}, \"head_tags\": {}, \"tail_tags\": {}, \"cold_start_macro_f1\": {:.4}, \"cold_start_micro_f1\": {:.4}, \"bytes\": {}, \"secs\": {:.3}}}{}\n",
                c.protocol,
                c.overlay,
                c.micro_f1,
                c.macro_f1,
                c.head_macro_f1,
                c.tail_macro_f1,
                c.head_tags,
                c.tail_tags,
                c.cold_start_macro_f1,
                c.cold_start_micro_f1,
                c.bytes,
                c.secs,
                if j + 1 < r.cells.len() { "," } else { "" },
            ));
        }
        out.push_str("      ]\n");
        out.push_str(if i + 1 < rows.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Validates that a string is well-formed JSON (objects, arrays, strings,
/// numbers, booleans, null). The workspace vendors no JSON crate, so the
/// `BENCH_*.json` documents are rendered by hand; this minimal
/// recursive-descent checker is what the CI smoke step uses to fail the build
/// if a hand-rolled writer ever emits a malformed document.
pub fn validate_json(text: &str) -> Result<(), String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(())
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => parse_string(bytes, pos),
        Some(b't') => parse_literal(bytes, pos, "true"),
        Some(b'f') => parse_literal(bytes, pos, "false"),
        Some(b'n') => parse_literal(bytes, pos, "null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(c) => Err(format!("unexpected byte {c:?} at {pos:?}")),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // consume '{'
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos:?}"));
        }
        parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos:?}"));
        }
        *pos += 1;
        parse_value(bytes, pos)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos:?}")),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // consume '['
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        parse_value(bytes, pos)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos:?}")),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // consume opening '"'
    while let Some(&c) = bytes.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => *pos += 2,
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_string())
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(|_| ())
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("invalid literal at byte {pos:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_scenario_fills_every_protocol_cell() {
        let scenario = ScenarioSpec::named("zipf-heavy").unwrap();
        let row = measure_scenario(&scenario, 6, Scale::Small, 2, 11);
        assert_eq!(row.cells.len(), 4);
        assert_eq!(row.peers, 6);
        assert_eq!(row.cold_peers, cold_peer_count(6));
        for cell in &row.cells {
            assert!(cell.micro_f1 > 0.0, "{}", cell.protocol);
            assert!(cell.head_tags >= 1);
            assert!((0.0..=1.0).contains(&cell.tail_macro_f1));
            assert!((0.0..=1.0).contains(&cell.cold_start_macro_f1));
        }
        // Collaborative protocols move bytes; local-only moves none.
        assert!(row.cell("pace").unwrap().bytes > 0);
        assert_eq!(row.cell("local-only").unwrap().bytes, 0);
        let json = to_json(&[row], 2, 11);
        validate_json(&json).unwrap();
        assert!(json.contains("\"tail_macro_f1\""));
        assert!(json.contains("\"cold_start_macro_f1\""));
    }

    #[test]
    fn overlay_churn_regime_labels_overlay_columns() {
        let scenario = ScenarioSpec::named("overlay-churn").unwrap();
        assert!(!matches!(
            scenario.session_config(2, 5).churn,
            p2psim::churn::ChurnModel::None
        ));
        let row = measure_scenario(&scenario, 6, Scale::Small, 2, 5);
        assert_eq!(row.cell("pace").unwrap().overlay, "chord-dht");
        assert_eq!(row.cell("cempar").unwrap().overlay, "super-peer");
        assert_eq!(row.cell("local-only").unwrap().overlay, "none");
        for cell in &row.cells {
            assert!(
                cell.micro_f1 > 0.0,
                "{} collapsed under churn",
                cell.protocol
            );
        }
        let json = to_json(&[row], 2, 5);
        validate_json(&json).unwrap();
        assert!(json.contains("\"overlay\": \"chord-dht\""));
        assert!(json.contains("\"overlay\": \"super-peer\""));
    }

    #[test]
    fn json_validator_accepts_well_formed_and_rejects_malformed() {
        validate_json("{\"a\": [1, 2.5, -3e2], \"b\": {\"c\": null}, \"d\": \"x\\\"y\"}").unwrap();
        validate_json("[]").unwrap();
        validate_json("  true  ").unwrap();
        assert!(validate_json("{\"a\": }").is_err());
        assert!(validate_json("{\"a\": 1,}").is_err());
        assert!(validate_json("[1, 2").is_err());
        assert!(validate_json("{\"a\": 1} extra").is_err());
        assert!(validate_json("\"unterminated").is_err());
        assert!(validate_json("{'a': 1}").is_err());
    }
}
