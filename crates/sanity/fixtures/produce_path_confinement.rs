// Fixture: the named produce path growing its own copy of the produce
// fault gate beside the broker's fetch/metadata gate. Linted as if at
// `crates/logbus/src/broker.rs`; must trip exactly
// `produce-path-confinement`, once — on the second gate.
fn gate(action: Option<FaultAction>) -> Result<()> {
    match action {
        Some(FaultAction::Error(e)) => Err(e),
        Some(FaultAction::AckLost | FaultAction::Duplicate) | None => Ok(()),
        Some(FaultAction::Latency(extra)) => {
            spin_delay(extra);
            Ok(())
        }
    }
}

fn produce_with_faults(target: &Target, records: &mut Vec<Record>) -> Result<u64> {
    match target.draw() {
        Some(FaultAction::AckLost) => {
            target.send(records)?;
            Err(Error::RequestTimedOut)
        }
        _ => target.send(records),
    }
}
