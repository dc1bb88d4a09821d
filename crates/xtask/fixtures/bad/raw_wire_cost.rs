// Fixture: network sends charging raw integer literals instead of going
// through the frame layer. Linted as if it lived under
// crates/p2pclassify/src/.

fn propagate(net: &mut Network, from: PeerId, to: PeerId) {
    // An invented cost: the E3 communication tables would silently lie.
    net.send(from, to, MessageKind::ModelPropagation, 4096).ok();
    // Arithmetic over literals is still an invented cost.
    let _ = net.send(from, to, MessageKind::RefinementUpdate, 64 * 128);
}
