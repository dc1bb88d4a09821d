// Fixture: sends that charge measured frame lengths (or estimator output)
// lint clean under the wire-discipline rule, even inside p2pclassify. The
// Results are consumed so the send-unchecked rule stays quiet too.

fn propagate(net: &mut Network, from: PeerId, to: PeerId, model: &Model) -> Result<(), Error> {
    let frame = encode_model(model);
    net.send(from, to, MessageKind::ModelPropagation, frame.len() as u64)?;
    let estimate = model.wire_size();
    if net
        .send(from, to, MessageKind::RefinementUpdate, estimate)
        .is_err()
    {
        mark_lost(to);
    }
    Ok(())
}
