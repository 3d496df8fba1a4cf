//! Crash-injection harness: kill-at-random-offset → reopen → verify.
//!
//! One fault-free **oracle** run measures how many durable bytes the
//! scripted DDL/DML workload writes (WAL frames, fsynced checkpoints).
//! Each seeded trial then reruns the same script against a fresh
//! directory with a fault armed at a random byte offset inside that
//! budget — a mid-write kill with a torn tail, a clean short write, or
//! an ENOSPC refusal — and reopens the directory through crash
//! recovery. The reopened state must equal the committed prefix of the
//! script: every acknowledged (fsynced) statement survives, the one
//! statement in flight at the kill may land either fully or not at all,
//! and nothing else is acceptable. A trial that recovers anything else,
//! or panics, or fails to reopen, is a **divergence**; `repro --crash`
//! requires zero and writes the per-trial log to `BENCH_crash.json`.

use pmem_sim::FaultPlan;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use wl_db::durable::read_checkpoint;
use wl_db::{Database, DdlError};

/// One statement of the crash script, mirrored by a logical model so
/// the expected post-crash state is computable without a live database.
#[derive(Clone, Debug)]
enum Op {
    /// `CREATE TABLE name AS WISCONSIN(rows, fanout, seed)`.
    Create {
        name: &'static str,
        rows: u64,
        fanout: u64,
        seed: u64,
    },
    /// `INSERT INTO name VALUES …`.
    Insert { name: &'static str, keys: Vec<u64> },
    /// `DROP TABLE name`.
    Drop { name: &'static str },
    /// `CHECKPOINT` (no logical effect; moves bytes and the WAL base).
    Checkpoint,
}

/// The scripted workload: spans both sides of two checkpoints so kills
/// land in WAL appends, checkpoint images, and WAL resets alike.
fn script() -> Vec<Op> {
    vec![
        Op::Create {
            name: "t",
            rows: 300,
            fanout: 1,
            seed: 3,
        },
        Op::Insert {
            name: "t",
            keys: vec![300, 301, 302, 303],
        },
        Op::Checkpoint,
        Op::Create {
            name: "v",
            rows: 120,
            fanout: 2,
            seed: 7,
        },
        Op::Insert {
            name: "v",
            keys: vec![120, 121],
        },
        Op::Drop { name: "v" },
        Op::Create {
            name: "w",
            rows: 80,
            fanout: 1,
            seed: 1,
        },
        Op::Insert {
            name: "t",
            keys: vec![304, 305, 306],
        },
        Op::Checkpoint,
        Op::Create {
            name: "v",
            rows: 60,
            fanout: 1,
            seed: 9,
        },
    ]
}

/// Logical table state: sorted key multiset per table.
type State = BTreeMap<String, Vec<u64>>;

/// `states[i]` = expected state after the first `i` ops committed.
fn model_states(ops: &[Op]) -> Vec<State> {
    let mut states = vec![State::new()];
    let mut cur = State::new();
    for op in ops {
        match op {
            Op::Create {
                name, rows, fanout, ..
            } => {
                let mut keys = Vec::with_capacity((rows * fanout) as usize);
                for k in 0..*rows {
                    for _ in 0..*fanout {
                        keys.push(k);
                    }
                }
                cur.insert((*name).into(), keys);
            }
            Op::Insert { name, keys } => {
                let table = cur.get_mut(*name).expect("script inserts into live table");
                table.extend(keys);
                table.sort_unstable();
            }
            Op::Drop { name } => {
                cur.remove(*name);
            }
            Op::Checkpoint => {}
        }
        states.push(cur.clone());
    }
    states
}

fn apply(db: &Database, op: &Op) -> Result<(), DdlError> {
    match op {
        Op::Create {
            name,
            rows,
            fanout,
            seed,
        } => db.create_wisconsin(name, *rows, *fanout, *seed).map(|_| ()),
        Op::Insert { name, keys } => db.insert_keys(name, keys).map(|_| ()),
        Op::Drop { name } => db.drop_table(name).map(|_| ()),
        Op::Checkpoint => db.checkpoint().map(|_| ()),
    }
}

/// Reads the recovered state back from the post-recovery checkpoint
/// (reopen always rewrites it, so it holds the full catalog).
fn recovered_state(dir: &Path) -> Result<State, String> {
    let ckpt = read_checkpoint(dir)
        .map_err(|e| e.to_string())?
        .ok_or("no checkpoint after reopen")?;
    let mut state = State::new();
    for table in ckpt.tables() {
        let mut keys: Vec<u64> = table.keys().collect();
        keys.sort_unstable();
        state.insert(table.name.to_string(), keys);
    }
    Ok(state)
}

/// The fault a trial arms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fault {
    /// Kill mid-write, garbling the torn tail.
    Torn,
    /// Kill mid-write with a clean short write.
    Short,
    /// Refuse the crossing write with ENOSPC.
    NoSpace,
}

impl Fault {
    fn label(self) -> &'static str {
        match self {
            Fault::Torn => "torn",
            Fault::Short => "short",
            Fault::NoSpace => "enospc",
        }
    }

    fn plan(self, offset: u64, seed: u64) -> FaultPlan {
        match self {
            Fault::Torn => FaultPlan::kill_at(offset, true, seed),
            Fault::Short => FaultPlan::kill_at(offset, false, seed),
            Fault::NoSpace => FaultPlan::enospc_at(offset),
        }
    }
}

/// One trial's outcome, serialized into `BENCH_crash.json`.
#[derive(Debug)]
pub struct Trial {
    /// RNG seed (also the garble seed).
    pub seed: u64,
    /// Fault flavor (`torn`, `short`, `enospc`).
    pub fault: &'static str,
    /// Byte offset (since arming) at which the fault fires.
    pub offset: u64,
    /// Statements acknowledged before the failure surfaced.
    pub acked: usize,
    /// WAL records replayed by the reopen.
    pub replayed: u64,
    /// `prefix` (= acked state), `prefix+1` (in-flight statement made
    /// it to disk before the kill), or a description of the divergence.
    pub outcome: String,
}

impl Trial {
    /// A trial diverges unless recovery produced one of the two legal
    /// prefixes.
    pub fn diverged(&self) -> bool {
        self.outcome != "prefix" && self.outcome != "prefix+1"
    }
}

fn trial_dir(tag: &str, seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!("wl-crash-{tag}-{}-{seed}", std::process::id()))
}

/// Fault-free oracle: total durable bytes the script writes after open,
/// sanity-checked against the logical model.
fn oracle_bytes(ops: &[Op], states: &[State]) -> u64 {
    let dir = trial_dir("oracle", 0);
    let _ = std::fs::remove_dir_all(&dir);
    let db = Database::open(&dir).expect("oracle open");
    db.device().arm_faults(FaultPlan::observe());
    for op in ops {
        apply(&db, op).expect("oracle runs fault-free");
    }
    let total = db.device().fault_bytes_written();
    let tables = db.tables();
    drop(db);
    let last = states.last().expect("non-empty model");
    assert_eq!(
        tables.len(),
        last.len(),
        "oracle table count disagrees with the model"
    );
    for (name, rows) in tables {
        let keys = last.get(&name).expect("oracle table in model");
        assert_eq!(rows as usize, keys.len(), "oracle rows for {name}");
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(total > 0, "the script must write durable bytes");
    total
}

/// Runs one seeded kill → reopen → verify cycle.
fn run_trial(ops: &[Op], states: &[State], total_bytes: u64, seed: u64) -> Trial {
    let mut rng = StdRng::seed_from_u64(seed);
    let offset = rng.gen_range(1..total_bytes + 1);
    let fault = match seed % 6 {
        5 => Fault::NoSpace,
        n if n % 2 == 0 => Fault::Torn,
        _ => Fault::Short,
    };

    let dir = trial_dir("trial", seed);
    let _ = std::fs::remove_dir_all(&dir);
    let mut trial = Trial {
        seed,
        fault: fault.label(),
        offset,
        acked: 0,
        replayed: 0,
        outcome: String::new(),
    };

    // Phase 1: run the script against the armed database until a
    // statement fails. Failures must be typed errors, never panics
    // (a panic fails the whole harness, which is the point).
    {
        let db = match Database::open(&dir) {
            Ok(db) => db,
            Err(e) => {
                trial.outcome = format!("initial open failed: {e}");
                return trial;
            }
        };
        db.device().arm_faults(fault.plan(offset, seed));
        for op in ops {
            match apply(&db, op) {
                Ok(()) => trial.acked += 1,
                Err(_) => break, // the simulated process dies here
            }
        }
    }

    // Phase 2: crash recovery on a clean device (the old Database is
    // dropped; named files survive in `dir`).
    let db = match Database::reopen(&dir) {
        Ok(db) => db,
        Err(e) => {
            trial.outcome = format!("reopen failed: {e}");
            let _ = std::fs::remove_dir_all(&dir);
            return trial;
        }
    };
    let report = db.recovery_report().expect("reopen is durable");
    trial.replayed = report.replayed_records;
    let recovered = match recovered_state(&dir) {
        Ok(s) => s,
        Err(e) => {
            trial.outcome = format!("unreadable recovered state: {e}");
            let _ = std::fs::remove_dir_all(&dir);
            return trial;
        }
    };
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);

    // The committed prefix must survive; the statement in flight at the
    // kill may have reached the disk (its WAL record was complete) or
    // not — both are honest, anything else is a divergence.
    trial.outcome = if recovered == states[trial.acked] {
        "prefix".into()
    } else if trial.acked < ops.len() && recovered == states[trial.acked + 1] {
        "prefix+1".into()
    } else {
        format!(
            "recovered {} tables matching neither prefix {} nor {}",
            recovered.len(),
            trial.acked,
            trial.acked + 1
        )
    };
    trial
}

/// Serializes the trial log as JSON (hand-rolled; no serde offline).
pub fn trials_json(trials: &[Trial], total_bytes: u64) -> String {
    let divergences = trials.iter().filter(|t| t.diverged()).count();
    let mut out = format!(
        "{{\n  \"oracle_bytes\": {total_bytes},\n  \"trials\": {},\n  \
         \"divergences\": {divergences},\n  \"log\": [\n",
        trials.len()
    );
    for (i, t) in trials.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"seed\": {}, \"fault\": \"{}\", \"offset\": {}, \
             \"acked\": {}, \"replayed\": {}, \"outcome\": \"{}\"}}{}\n",
            t.seed,
            t.fault,
            t.offset,
            t.acked,
            t.replayed,
            t.outcome.replace('"', "'"),
            if i + 1 == trials.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Runs `seeds` randomized crash trials and returns the log.
///
/// # Panics
/// Panics if any trial diverges — recovery produced something other
/// than the committed prefix (± the in-flight statement).
pub fn crash_trials(seeds: u64) -> (Vec<Trial>, u64) {
    let ops = script();
    let states = model_states(&ops);
    let total = oracle_bytes(&ops, &states);
    println!("=== Crash injection: {seeds} seeded kills across {total} durable bytes ===",);
    let mut trials = Vec::with_capacity(seeds as usize);
    let mut by_outcome: BTreeMap<String, usize> = BTreeMap::new();
    for seed in 0..seeds {
        let t = run_trial(&ops, &states, total, seed);
        if t.diverged() {
            println!(
                "seed {seed}: DIVERGED at offset {} ({}): {}",
                t.offset, t.fault, t.outcome
            );
        }
        *by_outcome
            .entry(format!("{}/{}", t.fault, t.outcome))
            .or_default() += 1;
        trials.push(t);
    }
    for (outcome, n) in &by_outcome {
        println!("{n:>4}  {outcome}");
    }
    let divergences = trials.iter().filter(|t| t.diverged()).count();
    println!(
        "{} trials, {divergences} divergences — {}",
        trials.len(),
        if divergences == 0 { "PASS" } else { "FAIL" }
    );
    assert_eq!(divergences, 0, "crash recovery diverged from the oracle");
    (trials, total)
}

/// Full harness: 120 seeds, log written to `BENCH_crash.json`.
pub fn crash_harness() {
    let (trials, total) = crash_trials(120);
    let path = "BENCH_crash.json";
    match std::fs::write(path, trials_json(&trials, total)) {
        Ok(()) => println!("crash log written to {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// CI-sized smoke: 12 seeds, no baseline file. Completing without a
/// divergence (the trials assert) is the check.
pub fn crash_smoke() {
    crash_trials(12);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_tracks_the_script() {
        let ops = script();
        let states = model_states(&ops);
        assert_eq!(states.len(), ops.len() + 1);
        assert!(states[0].is_empty());
        // After op 1 (create t) and op 2 (insert 4 keys): 304 rows.
        assert_eq!(states[2]["t"].len(), 304);
        // v is created (240 rows), then dropped, then recreated at 60.
        assert_eq!(states[4]["v"].len(), 240);
        assert!(!states[6].contains_key("v"));
        assert_eq!(states[10]["v"].len(), 60);
        assert_eq!(states[10]["t"].len(), 307);
        assert_eq!(states[10]["w"].len(), 80);
    }

    #[test]
    fn a_handful_of_crash_trials_recover_the_committed_prefix() {
        let ops = script();
        let states = model_states(&ops);
        let total = oracle_bytes(&ops, &states);
        for seed in 100..106 {
            let t = run_trial(&ops, &states, total, seed);
            assert!(!t.diverged(), "seed {seed}: {}", t.outcome);
        }
    }

    #[test]
    fn trial_log_serializes_to_well_formed_json() {
        let trials = vec![Trial {
            seed: 1,
            fault: "torn",
            offset: 42,
            acked: 3,
            replayed: 2,
            outcome: "prefix".into(),
        }];
        let json = trials_json(&trials, 1000);
        assert!(json.contains("\"divergences\": 0"));
        assert!(json.contains("\"oracle_bytes\": 1000"));
        assert!(json.ends_with("}\n"));
    }
}
