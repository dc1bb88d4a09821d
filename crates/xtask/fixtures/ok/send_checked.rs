// Fixture: send Results consumed, propagated or explicitly allowed — all
// lint clean under the send-unchecked rule, even inside crates/p2pclassify.

fn propagate(
    net: &mut Network,
    link: &mut ReliableLink,
    from: PeerId,
    to: PeerId,
    frame: &[u8],
) -> Result<(), DeliveryError> {
    // Propagated to the caller.
    net.send(from, to, MessageKind::ModelPropagation, frame.len())?;
    // Consumed: the error arm feeds a loss counter.
    if net
        .send_frame(from, to, MessageKind::RefinementUpdate, frame)
        .is_err()
    {
        mark_lost(to);
    }
    // `.ok()` as an adapter (not a statement) keeps the value alive.
    let delivered = link
        .send_frame(net, from, to, MessageKind::AntiEntropy, frame, |_| true)
        .ok();
    record(delivered);
    // A reasoned allow is the audited escape hatch.
    // lint: allow(send-unchecked, reason = "best-effort hint; loss is benign and counted upstream")
    let _ = net.send(from, to, MessageKind::PredictionResponse, frame.len());
    Ok(())
}
