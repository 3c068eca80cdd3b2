//! Command lines of the two binaries. The driver's contract is
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>`; `--repeat`
//! and `--compare` are the builder's own tools on top of it.

use crate::compare;
use crate::json::{self, obj, Value};
use crate::spec::Spec;
use std::process::{Command, ExitCode, Stdio};

#[derive(Clone, Debug, Default, PartialEq)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<u32>,
    pub trace: bool,
    /// `--repeat N`: run the workload (or `all`) N times, each in a
    /// process of its own so `peak_rss_mb` stays one run's.
    pub repeat: Option<usize>,
    /// `--out FILE`: where `--repeat` writes its set.
    pub out: Option<String>,
    /// `--compare A B`.
    pub compare: Option<(String, String)>,
}

pub fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        ..Args::default()
    };
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: u32 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&s) {
                    return Err("--seconds must be 1..=60".to_string());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--repeat" => {
                args.repeat = Some(
                    value("a count")?
                        .parse()
                        .map_err(|e| format!("--repeat: {e}"))?,
                )
            }
            "--out" => args.out = Some(value("a file")?),
            "--compare" => args.compare = Some((value("two files")?, value("two files")?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// `--compare a.json b.json`: print the table; exit 2 on `regressed`, 3
/// when the sets cannot be compared (see [`compare::Findings`]).
pub fn compare_files(spec: &Spec, a: &str, b: &str) -> Result<ExitCode, String> {
    let read = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Ok::<_, String>(compare::read_set(
            &json::parse(&text).map_err(|e| format!("{path}: {e}"))?,
        ))
    };
    let (table, found) = compare::report(spec, &read(a)?, &read(b)?);
    print!("{table}");
    for problem in &found.invalid {
        println!("invalid: {problem}");
    }
    Ok(if found.regressed {
        ExitCode::from(2)
    } else if !found.invalid.is_empty() {
        ExitCode::from(3)
    } else {
        ExitCode::SUCCESS
    })
}

/// `--repeat N`: run this binary N times per workload, each in a child
/// process that has ended before the next starts, and write every info
/// and result line to `out`.
pub fn repeat(spec: &Spec, args: &Args, n: usize) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let seconds = args.seconds.unwrap_or(spec.run_seconds);
    let workloads: Vec<String> = match args.workload.as_deref() {
        None | Some("all") => spec.workloads.clone(),
        Some(w) => vec![w.to_string()],
    };
    let mut runs = Vec::new();
    for workload in &workloads {
        for i in 0..n {
            let output = Command::new(&exe)
                .args(["--workload", workload])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("spawn: {e}"))?;
            if !output.status.success() {
                return Err(format!("{workload} run {i} exited with {}", output.status));
            }
            let stdout = String::from_utf8_lossy(&output.stdout);
            let mut lines = stdout.lines().rev();
            let result = lines.next().map(json::parse).ok_or("no result line")??;
            let info = lines.next().map(json::parse).ok_or("no info line")??;
            if result.get("correct") != Some(&Value::Bool(true)) {
                return Err(format!("{workload} run {i} is not correct: {result}"));
            }
            eprintln!(
                "{workload} run {}/{n}: {}",
                i + 1,
                result.get("metrics").unwrap_or(&Value::Null)
            );
            runs.push(obj([
                ("workload", Value::Str(workload.clone())),
                ("info", info),
                ("result", result),
            ]));
        }
    }
    let doc = obj([
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(seconds as f64)),
        ("runs", Value::Arr(runs)),
    ]);
    match &args.out {
        Some(path) => {
            std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("{path}: {e}"))?
        }
        None => println!("{doc}"),
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(line: &str) -> Result<Args, String> {
        parse(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parsed("--workload commit_flat --seed 42 --seconds 15 --trace 0").unwrap();
        assert_eq!(a.workload.as_deref(), Some("commit_flat"));
        assert_eq!((a.seed, a.seconds, a.trace), (42, Some(15), false));
        assert!(parsed("--workload x --trace 1").unwrap().trace);
        let c = parsed("--compare a.json b.json").unwrap();
        assert_eq!(c.compare, Some(("a.json".into(), "b.json".into())));
        assert_eq!(parsed("--repeat 5 --out s.json").unwrap().repeat, Some(5));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "--seed",
            "--seed x",
            "--seconds 0",
            "--seconds 61",
            "--trace 2",
            "--frobnicate",
            "--compare a",
        ] {
            assert!(parsed(bad).is_err(), "{bad}");
        }
    }
}
