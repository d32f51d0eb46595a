//! Minimal `key=value` CLI argument parsing for the report binaries.
//!
//! Every binary accepts overrides like `scale=0.5 folds=5 threads=8` so
//! the full paper-scale sweep and a quick smoke run share one binary.

use std::collections::BTreeMap;

/// Parsed `key=value` arguments with typed getters.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: BTreeMap<String, String>,
}

impl Args {
    /// Parses the process arguments (ignores anything without `=`).
    pub fn from_env() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    /// Parses from an explicit iterator (for tests).
    pub fn from_args<I: IntoIterator<Item = String>>(iter: I) -> Self {
        let mut values = BTreeMap::new();
        for arg in iter {
            if let Some((k, v)) = arg.split_once('=') {
                values.insert(k.to_string(), v.to_string());
            }
        }
        Args { values }
    }

    /// Float argument with default.
    pub fn get_f64(&self, key: &str, default: f64) -> f64 {
        self.values.get(key).and_then(|v| v.parse().ok()).unwrap_or(default)
    }

    /// Integer argument with default.
    pub fn get_usize(&self, key: &str, default: usize) -> usize {
        self.values.get(key).and_then(|v| v.parse().ok()).unwrap_or(default)
    }

    /// Seed argument with default.
    pub fn get_u64(&self, key: &str, default: u64) -> u64 {
        self.values.get(key).and_then(|v| v.parse().ok()).unwrap_or(default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_typed_values() {
        let args = Args::from_args(
            ["scale=0.5", "folds=3", "seed=42", "garbage"].into_iter().map(String::from),
        );
        assert_eq!(args.get_f64("scale", 1.0), 0.5);
        assert_eq!(args.get_usize("folds", 5), 3);
        assert_eq!(args.get_u64("seed", 0), 42);
        assert_eq!(args.get_usize("missing", 7), 7);
    }

    #[test]
    fn malformed_values_fall_back() {
        let args = Args::from_args(["scale=abc".to_string()]);
        assert_eq!(args.get_f64("scale", 2.0), 2.0);
    }
}
