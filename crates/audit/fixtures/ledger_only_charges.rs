// Known-bad fixture for the ledger-only rule: the charges the page
// store and the persistence layers make — a write count, and a charge
// a layer's ChargeRule computed — called from a file that must not.
pub fn charge_writes(m: &Metrics) {
    m.add_writes(2);
}

pub fn charge_a_rule_result(m: &Metrics, rule: &ChargeRule, cursor: &mut ReadCursor) {
    m.add_charge(rule.read(0, 64, cursor));
}
