// Known-bad fixture for the ledger-only rule: a direct counter charge
// and a direct shard publication, both of which are pmem-sim-internal
// privileges.
pub fn charge_directly(m: &Metrics) {
    m.add_reads(1);
}

pub fn publish_directly(bank: &Bank, delta: &RawStats) {
    bank.merge_shard(delta);
}
