//! Command-line validation for the `figures` binary's engine-facing
//! knobs (`--jobs`, `--shards`, `--batch-bytes`, `--batch-max`), so an
//! impossible combination is a usage error up front instead of a panic
//! deep inside a run. [`validate`] runs immediately after argument
//! parsing, before any expensive state is built.

use cdpu_serve::BatchPolicy;

/// Hard ceiling on worker threads/shards: far above any host this runs
/// on, low enough to catch a mistyped `--jobs 1000000`.
pub const MAX_WORKERS: usize = 256;

/// Largest sensible small-call coalescing threshold. Above this the
/// "small call" batch would exceed the fleet's large-call sizes and
/// batching stops being an offload-amortization story.
pub const MAX_BATCH_BYTES: u64 = 16 * 1024 * 1024;

/// Serving-engine knobs of `figures --served`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServedOpts {
    /// Worker shards executing engine dispatches.
    pub shards: u32,
    /// Calls at or below this many bytes are batchable.
    pub batch_bytes: u64,
    /// Max calls coalesced into one dispatch.
    pub batch_max: usize,
}

impl Default for ServedOpts {
    fn default() -> Self {
        let b = BatchPolicy::default();
        ServedOpts {
            shards: 4,
            batch_bytes: b.small_bytes,
            batch_max: b.max_jobs,
        }
    }
}

impl ServedOpts {
    /// The batch policy these options select.
    pub fn batch_policy(&self) -> BatchPolicy {
        BatchPolicy {
            small_bytes: self.batch_bytes,
            max_jobs: self.batch_max,
        }
    }
}

/// Validates the `--jobs`/`--shards`/`--batch-*` combination up front.
/// `jobs` is `None` when the flag was not given (pool default applies).
/// Returns a usage-style message on the first violation.
pub fn validate(jobs: Option<usize>, served: &ServedOpts) -> Result<(), String> {
    if let Some(j) = jobs {
        if j == 0 || j > MAX_WORKERS {
            return Err(format!("--jobs must be between 1 and {MAX_WORKERS}, got {j}"));
        }
    }
    if served.shards == 0 || served.shards as usize > MAX_WORKERS {
        return Err(format!(
            "--shards must be between 1 and {MAX_WORKERS}, got {}",
            served.shards
        ));
    }
    if served.batch_max == 0 {
        return Err("--batch-max must be at least 1 (a dispatch carries one job)".into());
    }
    if served.batch_max > MAX_WORKERS {
        return Err(format!(
            "--batch-max must be at most {MAX_WORKERS}, got {}",
            served.batch_max
        ));
    }
    if served.batch_bytes > MAX_BATCH_BYTES {
        return Err(format!(
            "--batch-bytes must be at most {MAX_BATCH_BYTES} (16 MiB), got {}",
            served.batch_bytes
        ));
    }
    if served.batch_bytes > 0 && served.batch_max == 1 {
        return Err(
            "--batch-bytes set but --batch-max is 1, so nothing ever coalesces; \
             raise --batch-max or pass --batch-bytes 0"
                .into(),
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert_eq!(validate(None, &ServedOpts::default()), Ok(()));
        assert_eq!(validate(Some(8), &ServedOpts::default()), Ok(()));
    }

    #[test]
    fn zero_and_oversized_workers_rejected() {
        let opts = ServedOpts::default();
        assert!(validate(Some(0), &opts).is_err());
        assert!(validate(Some(MAX_WORKERS + 1), &opts).is_err());
        let mut bad = opts;
        bad.shards = 0;
        assert!(validate(None, &bad).is_err());
        bad.shards = 300;
        assert!(validate(None, &bad).is_err());
    }

    #[test]
    fn inconsistent_batch_combo_rejected() {
        let mut opts = ServedOpts {
            batch_bytes: 4096,
            batch_max: 1,
            ..ServedOpts::default()
        };
        let err = validate(None, &opts).expect_err("combo must be rejected");
        assert!(err.contains("coalesces"), "{err}");
        // The explicit off-policy spelling is fine.
        opts.batch_bytes = 0;
        assert_eq!(validate(None, &opts), Ok(()));
    }

    #[test]
    fn batch_bounds_enforced() {
        let mut opts = ServedOpts {
            batch_max: 0,
            ..ServedOpts::default()
        };
        assert!(validate(None, &opts).is_err());
        opts.batch_max = 8;
        opts.batch_bytes = MAX_BATCH_BYTES + 1;
        assert!(validate(None, &opts).is_err());
    }

    #[test]
    fn batch_policy_mirrors_opts() {
        let opts = ServedOpts {
            shards: 2,
            batch_bytes: 1024,
            batch_max: 4,
        };
        let p = opts.batch_policy();
        assert_eq!((p.small_bytes, p.max_jobs), (1024, 4));
    }
}
