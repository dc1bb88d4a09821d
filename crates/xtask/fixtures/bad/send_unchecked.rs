// Fixture: send Results discarded instead of tracked. Linted as if it lived
// under crates/p2pclassify/src/ — every lost send must feed a loss counter
// (or be explicitly allowed), otherwise the reliability story silently rots.

fn propagate(net: &mut Network, link: &mut ReliableLink, from: PeerId, to: PeerId, frame: &[u8]) {
    // The wildcard binding throws the Result away.
    let _ = net.send(from, to, MessageKind::ModelPropagation, frame.len());
    // So does a statement-level `.ok()`.
    net.send_frame(from, to, MessageKind::RefinementUpdate, frame)
        .ok();
    // The reliable link's sends are Results too.
    let _ = link.send_frame(net, from, to, MessageKind::AntiEntropy, frame, |_| true);
}
