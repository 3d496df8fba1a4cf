// Known-bad fixture for the ledger-only rule: the per-call software
// charge the persistence layers make, called from a file that only
// observes the ledger.
pub fn charge_calls(m: &Metrics) {
    m.add_layer_calls(3, 0.5);
}
