//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro <experiment> [--duration-ms N] [--warmup-ms N] [--threads a,b,c]
//!                    [--rpc-us N] [--full]
//!
//! experiments: sec52 fig3a fig3b fig4 fig5 fig6 fig7 fig8 readratio
//!              fig9 fig10 fig11 ablation model micro all
//! ```
//!
//! Defaults are quick smoke settings (~300 ms per point); `--full` matches
//! longer paper-style runs and fills in only the flags not given. `micro`
//! prints the per-operation probes the repo benchmark lacks. See
//! EXPERIMENTS.md for recorded outputs.
//!
//! Exits 1 after printing every series when a stored-procedure point fired
//! a wait backstop (a `WaitTimeout` abort), naming each such point.

use bamboo_bench::RunOpts;
use bamboo_bench::{figures, harness, micro};

fn usage() -> ! {
    eprintln!(
        "usage: repro <sec52|fig3a|fig3b|fig4|fig5|fig6|fig7|fig8|readratio|fig9|fig10|fig11|ablation|model|micro|all>\n\
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
    let opts = RunOpts::from_args(&args[1..]).unwrap_or_else(|| usage());

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
        "micro" => micro::run(opts),
        _ => usage(),
    };

    if exp == "all" {
        for name in [
            "model",
            "micro",
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
