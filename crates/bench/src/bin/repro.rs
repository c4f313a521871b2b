//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro <experiment> [--duration-ms N] [--warmup-ms N] [--threads a,b,c]
//!                    [--rpc-us N] [--full]
//!
//! experiments: sec52 fig3a fig3b fig4 fig5 fig6 fig7 fig8 readratio
//!              fig9 fig10 fig11 ablation model all
//! ```
//!
//! Defaults are quick smoke settings (~300 ms per point); `--full` matches
//! longer paper-style runs. See EXPERIMENTS.md for recorded outputs.
//!
//! Exits 1 after printing every series when a stored-procedure point fired
//! a wait backstop (a `WaitTimeout` abort), naming each such point.

use std::time::Duration;

use bamboo_bench::RunOpts;
use bamboo_bench::{figures, harness};

fn usage() -> ! {
    eprintln!(
        "usage: repro <sec52|fig3a|fig3b|fig4|fig5|fig6|fig7|fig8|readratio|fig9|fig10|fig11|ablation|model|all>\n\
         \x20      [--duration-ms N] [--warmup-ms N] [--threads a,b,c] [--rpc-us N] [--full]"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let exp = args[0].clone();
    let mut opts = RunOpts::default();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--full" => {
                opts = RunOpts {
                    threads: opts.threads.clone(),
                    ..RunOpts::full()
                }
            }
            "--duration-ms" => {
                i += 1;
                opts.duration = Duration::from_millis(
                    args.get(i)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--warmup-ms" => {
                i += 1;
                opts.warmup = Duration::from_millis(
                    args.get(i)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--rpc-us" => {
                i += 1;
                opts.rpc = Duration::from_micros(
                    args.get(i)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--threads" => {
                i += 1;
                opts.threads = args
                    .get(i)
                    .map(|v| {
                        v.split(',')
                            .map(|s| s.parse().unwrap_or_else(|_| usage()))
                            .collect()
                    })
                    .unwrap_or_else(|| usage());
            }
            _ => usage(),
        }
        i += 1;
    }

    let run = |name: &str, opts: &RunOpts| match name {
        "sec52" => figures::sec52(opts),
        "fig3a" => figures::fig3a(opts),
        "fig3b" => figures::fig3b(opts),
        "fig4" => figures::fig4(opts),
        "fig5" => figures::fig5(opts),
        "fig6" => figures::fig6(opts),
        "fig7" => figures::fig7(opts),
        "fig8" => figures::fig8(opts),
        "readratio" => figures::read_ratio(opts),
        "ablation" => figures::ablation(opts),
        "fig9" => figures::fig9(opts),
        "fig10" => figures::fig10(opts),
        "fig11" => figures::fig11(opts),
        "model" => figures::model_table(),
        _ => usage(),
    };

    if exp == "all" {
        for name in [
            "model",
            "sec52",
            "fig3a",
            "fig3b",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "readratio",
            "fig9",
            "fig10",
            "fig11",
            "ablation",
        ] {
            run(name, &opts);
        }
    } else {
        run(&exp, &opts);
    }
    let failures = harness::take_backstop_failures();
    for point in &failures {
        eprintln!("wait backstop fired (WaitTimeout abort): {point}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
