//! Argument parsing. Unknown flags and bad values are usage errors
//! (exit code 2) that name the offending flag.

use crate::metrics::WORKLOADS;

pub const USAGE: &str = "usage: benchmark (--workload <name> | --all) [--seed N] [--seconds N] \
[--trace [0|1]] [--smoke]
  --spans-only   with --trace: record spans, skip the layer pass (a traced --all passes
                 it to every workload but the last, so the layer pass runs once)";

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// `None` = `--all`.
    pub workload: Option<String>,
    pub seed: u64,
    /// Length of the measurement window.
    pub seconds: f64,
    pub trace: bool,
    /// One round per workload, one set-up, one repetition per layer.
    pub smoke: bool,
    /// Traced run without the layer pass.
    pub spans_only: bool,
}

pub fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        spans_only: false,
    };
    let mut all = false;
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!(
                        "--workload {name}: unknown workload (known: {})",
                        WORKLOADS.join(", ")
                    ));
                }
                args.workload = Some(name);
            }
            "--all" => all = true,
            "--seed" => {
                let v = value("a whole number")?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("--seed {v}: not a whole number"))?;
            }
            "--seconds" => {
                let v = value("a number of seconds")?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {v}: not a positive number"))?;
            }
            "--trace" => {
                // `--trace` alone means on; the driver passes `--trace 0|1`.
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => args.smoke = true,
            "--spans-only" => args.spans_only = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.spans_only && !args.trace {
        return Err("--spans-only needs --trace".to_string());
    }
    match (&args.workload, all) {
        (Some(_), true) => Err("--workload and --all exclude each other".to_string()),
        (None, false) => Err("one of --workload <name> or --all is required".to_string()),
        _ => Ok(args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(s: &str) -> Result<Args, String> {
        parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse_str("--workload serve_paced --seed 7 --seconds 10 --trace 0").unwrap();
        assert_eq!(a.workload.as_deref(), Some("serve_paced"));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.smoke),
            (7, 10.0, false, false)
        );
        assert!(parse_str("--workload model_dse --trace 1").unwrap().trace);
        let a = parse_str("--all --trace --smoke").unwrap();
        assert_eq!(
            (a.workload, a.trace, a.smoke, a.seed),
            (None, true, true, 1)
        );
    }

    #[test]
    fn usage_errors_name_the_flag() {
        assert!(parse_str("--all --frobnicate")
            .unwrap_err()
            .contains("--frobnicate"));
        assert!(parse_str("--workload nope").unwrap_err().contains("nope"));
        assert!(parse_str("--all --seed x").unwrap_err().contains("--seed"));
        assert!(parse_str("--all --seconds 0")
            .unwrap_err()
            .contains("--seconds"));
        assert!(parse_str("--workload").unwrap_err().contains("--workload"));
        assert!(parse_str("").is_err());
        assert!(parse_str("--all --workload calls_small").is_err());
        assert!(parse_str("--all --spans-only")
            .unwrap_err()
            .contains("--spans-only"));
        assert!(
            parse_str("--workload calls_giant --trace 1 --spans-only")
                .unwrap()
                .spans_only
        );
    }
}
