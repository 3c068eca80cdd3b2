//! The gate: one workload, end to end, through `uniform::ConcurrentDatabase`
//! only (see `driver.rs`). Prints an info line, then the contract's
//! result line with the end-to-end metrics.

use std::process::ExitCode;
use ubench::driver::{NoProbe, ObsMode};
use ubench::{cli, gen, report, spec};

fn main() -> ExitCode {
    let spec = spec::spec();
    let outcome = cli::parse(std::env::args().skip(1)).and_then(|args| {
        if let Some((a, b)) = &args.compare {
            return cli::compare_files(&spec, a, b);
        }
        if let Some(n) = args.repeat {
            return cli::repeat(&spec, &args, n);
        }
        if args.trace {
            return Err("--trace 1 is the bench-layers binary's job".to_string());
        }
        let workload = args.workload.as_deref().ok_or("--workload is required")?;
        let seconds = args.seconds.unwrap_or(spec.run_seconds);
        let plan = gen::plan(workload, args.seed, seconds)
            .ok_or(format!("unknown workload `{workload}`"))?;
        let run = report::run(&plan, ObsMode::FromEnv, report::SETUPS, &mut NoProbe);
        for m in &run.mismatches {
            eprintln!("{m}");
        }
        println!("{}", run.info(&plan));
        println!("{}", report::end_to_end_line(&spec, &run));
        Ok(ExitCode::SUCCESS)
    });
    outcome.unwrap_or_else(|e| {
        eprintln!("bench-e2e: {e}");
        ExitCode::FAILURE
    })
}
