//! Experiment scaling.
//!
//! The paper sorts ten million 80-byte records and joins one million
//! against ten million on an instrumented testbed. The simulator's cost
//! structure is scale-invariant in the memory *fraction*, so the default
//! harness scale keeps wall-clock time laptop-friendly; set
//! `WL_SCALE=paper` for the full sizes or `WL_SCALE=quick` for smoke
//! runs.

/// Sizes and sweep points for the reproduction experiments.
#[derive(Clone, Debug)]
pub struct Scale {
    /// Records in the sort input.
    pub sort_n: u64,
    /// Records in the join's left input.
    pub join_t: u64,
    /// Right-input records per left record.
    pub join_fanout: u64,
    /// Memory sweep, as fractions of the (left) input size.
    pub mem_fractions: Vec<f64>,
    /// Write-intensity sweep for Figs. 9–10.
    pub intensities: Vec<f64>,
    /// Write-latency sweep (ns) for Fig. 11.
    pub write_latencies: Vec<f64>,
}

impl Scale {
    /// Default harness scale (~seconds per figure).
    pub fn default_scale() -> Self {
        Self {
            sort_n: 100_000,
            join_t: 20_000,
            join_fanout: 10,
            mem_fractions: vec![0.01, 0.025, 0.05, 0.075, 0.10, 0.125, 0.15],
            intensities: vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
            write_latencies: vec![50.0, 75.0, 100.0, 125.0, 150.0, 175.0, 200.0],
        }
    }

    /// Smoke-test scale.
    pub fn quick() -> Self {
        Self {
            sort_n: 20_000,
            join_t: 4_000,
            join_fanout: 5,
            mem_fractions: vec![0.02, 0.05, 0.10, 0.15],
            intensities: vec![0.2, 0.5, 0.8],
            write_latencies: vec![50.0, 100.0, 150.0, 200.0],
        }
    }

    /// The paper's sizes (minutes to hours of harness time).
    pub fn paper() -> Self {
        Self {
            sort_n: 10_000_000,
            join_t: 1_000_000,
            join_fanout: 10,
            ..Self::default_scale()
        }
    }

    /// Reads the scale from `WL_SCALE` (`quick`, `default` or `paper`;
    /// unset means `default`). Any other value is a usage error: the
    /// process exits with status 2.
    pub fn from_env() -> Self {
        match std::env::var("WL_SCALE").as_deref() {
            Err(std::env::VarError::NotPresent) | Ok("default") => Self::default_scale(),
            Ok("quick") => Self::quick(),
            Ok("paper") => Self::paper(),
            _ => {
                let got = std::env::var_os("WL_SCALE").unwrap_or_default();
                eprintln!("usage: WL_SCALE=quick|default|paper, got {got:?}");
                std::process::exit(2)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::quick().sort_n < Scale::default_scale().sort_n);
        assert!(Scale::default_scale().sort_n < Scale::paper().sort_n);
    }

    #[test]
    fn fractions_are_percentages_of_input() {
        for f in Scale::default_scale().mem_fractions {
            assert!(f > 0.0 && f < 1.0);
        }
    }
}
