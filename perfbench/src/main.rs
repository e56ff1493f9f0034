//! `ptstore-perfbench --workload <forkstress|c1m|modelcheck> --seed <n>
//! --seconds <s> --trace <0|1> [--trace-out <file>] [--print-golden]`
//!
//! Prints detail lines prefixed with `# `, then one JSON result line. With
//! `--print-golden` it instead prints one untraced pass's modeled output in
//! the format of the files under `golden/`.

use std::path::PathBuf;
use std::process::ExitCode;

use ptstore_perfbench::c1m::C1m;
use ptstore_perfbench::forkstress::ForkStress;
use ptstore_perfbench::harness::{self, Opts, Workload};
use ptstore_perfbench::modelcheck::ModelCheck;

const USAGE: &str = "usage: ptstore-perfbench --workload <forkstress|c1m|modelcheck> \
                     --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>] [--print-golden]";

fn golden<W: Workload>(seed: u64) -> Result<String, String> {
    let shape = W::shape(seed);
    let out = W::run(&shape, W::setup(&shape)?);
    Ok(format!(
        "# {} modeled output on seed {seed}: one `unit: render` line per checked unit.\n{}",
        W::NAME,
        out.render()
    ))
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut opts = Opts {
        seed: ptstore_perfbench::shape::PAPER_SEED,
        seconds: 10.0,
        trace: false,
        trace_out: None,
    };
    let mut print_golden = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--print-golden" {
            print_golden = true;
            continue;
        }
        let Some(value) = args.next() else {
            eprintln!("{flag} needs a value\n{USAGE}");
            return ExitCode::from(2);
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Some(value.clone());
                true
            }
            "--seed" => value.parse().map(|v| opts.seed = v).is_ok(),
            "--seconds" => value
                .parse::<f64>()
                .ok()
                .filter(|s| *s > 0.0)
                .map(|s| opts.seconds = s)
                .is_some(),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    opts.trace = value == "1";
                    true
                }
                _ => false,
            },
            "--trace-out" => {
                opts.trace_out = Some(PathBuf::from(&value));
                true
            }
            _ => false,
        };
        if !ok {
            eprintln!("bad argument {flag} {value}\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    // Hart loops stay on one host thread: the benchmark times the
    // simulator, not the host scheduler.
    ptstore_kernel::exec::set_host_threads(1);

    let outcome = match (workload.as_deref(), print_golden) {
        (Some(ForkStress::NAME), false) => harness::run::<ForkStress>(&opts),
        (Some(C1m::NAME), false) => harness::run::<C1m>(&opts),
        (Some(ModelCheck::NAME), false) => harness::run::<ModelCheck>(&opts),
        (Some(w), true) => {
            let text = match w {
                ForkStress::NAME => golden::<ForkStress>(opts.seed),
                C1m::NAME => golden::<C1m>(opts.seed),
                ModelCheck::NAME => golden::<ModelCheck>(opts.seed),
                _ => Err(format!("unknown workload {w}")),
            };
            return match text {
                Ok(t) => {
                    print!("{t}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            };
        }
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    for line in &outcome.detail {
        println!("# {line}");
    }
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}
