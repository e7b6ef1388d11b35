//! Command line: `run`, `compare`, `manifest`. Unknown flags, unknown
//! workload names and malformed values are errors (exit code 2).

use crate::metrics::RUN_SECONDS;
use crate::workloads::{self, Workload};

pub const USAGE: &str = "\
usage:
  apiary-benchmark run [--workload <name>] [--seed <n>] [--seconds <n>] [--trace <0|1>] [--out <file>]
      Without --workload, runs all four, each in a fresh process.
      --trace 0 (default) prints the end-to-end metrics, --trace 1 the per-layer ones.
  apiary-benchmark compare <a.json> <b.json>
      Compares two --out reports against the bounds; exit 1 on any `worse`.
  apiary-benchmark manifest
      Prints BENCHMARK.json.
workloads: noc_uniform board_tenants cluster_rpc faas_storm";

pub struct RunArgs {
    pub workload: Option<&'static Workload>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub out: Option<String>,
}

pub enum Command {
    Run(RunArgs),
    Compare { a: String, b: String },
    Manifest,
}

pub fn parse(args: &[String]) -> Result<Command, String> {
    let (sub, rest) = args.split_first().ok_or("missing subcommand")?;
    match sub.as_str() {
        "run" => parse_run(rest).map(Command::Run),
        "compare" => match rest {
            [a, b] if !a.starts_with("--") && !b.starts_with("--") => Ok(Command::Compare {
                a: a.clone(),
                b: b.clone(),
            }),
            _ => Err("compare takes exactly two report files".to_string()),
        },
        "manifest" if rest.is_empty() => Ok(Command::Manifest),
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("`{flag}` needs a value"))
                .map(String::as_str)
        };
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("`{flag}` needs a whole number, got `{v}`"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                run.workload = Some(
                    workloads::find(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => run.seed = number(value()?)?,
            "--seconds" => {
                run.seconds = number(value()?)?;
                if !(1..=600).contains(&run.seconds) {
                    return Err("`--seconds` must be between 1 and 600".to_string());
                }
            }
            "--trace" => {
                run.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("`--trace` takes 0 or 1, got `{v}`")),
                }
            }
            "--out" => run.out = Some(value()?.to_string()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(args: &[&str]) -> Result<Command, String> {
        parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_invocation_parses() {
        let cmd = parse_strs(&[
            "run",
            "--workload",
            "cluster_rpc",
            "--seed",
            "7",
            "--seconds",
            "25",
            "--trace",
            "1",
        ]);
        let Ok(Command::Run(run)) = cmd else {
            panic!("did not parse");
        };
        assert_eq!(run.workload.unwrap().name, "cluster_rpc");
        assert_eq!((run.seed, run.seconds, run.trace), (7, 25, true));
    }

    #[test]
    fn defaults_are_seed_one_untraced_all_workloads() {
        let Ok(Command::Run(run)) = parse_strs(&["run"]) else {
            panic!("did not parse");
        };
        assert!(run.workload.is_none() && !run.trace && run.out.is_none());
        assert_eq!((run.seed, run.seconds), (1, RUN_SECONDS));
    }

    #[test]
    fn rejects_unknown_flags_and_workloads() {
        for bad in [
            &["run", "--traced"][..],
            &["run", "--workload", "noc_hotspot"],
            &["run", "--seed"],
            &["run", "--seed", "x"],
            &["run", "--trace", "2"],
            &["run", "--seconds", "0"],
            &["run", "extra"],
            &["compare", "a.json"],
            &["compare", "a.json", "b.json", "c.json"],
            &["manifest", "x"],
            &["bench"],
            &[],
        ] {
            assert!(parse_strs(bad).is_err(), "{bad:?} should be rejected");
        }
    }
}
