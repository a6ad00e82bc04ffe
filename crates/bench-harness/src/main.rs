//! `repro <name>` prints one output of
//! [`bench_harness::experiments::OUTPUTS`]; `repro all` prints them all
//! and writes each report's CSV under `results/`; `repro obs_report
//! [duration_seconds]` runs the traced service and writes its `OBS_*`
//! artefacts to the current directory.
use std::fs;
use std::path::Path;
use std::process::exit;

use bench_harness::experiments::{obs_report, OUTPUTS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("all") => all(),
        Some("obs_report") => obs(args.get(1)),
        Some(name) => match OUTPUTS.iter().find(|(n, _)| *n == name) {
            Some((_, render)) => print!("{}", render().text),
            None => usage(),
        },
        None => usage(),
    }
}

fn usage() -> ! {
    let names = OUTPUTS.map(|(name, _)| name).join(" | ");
    eprintln!("usage: repro <all | obs_report [duration_seconds] | {names}>");
    exit(2);
}

fn all() {
    let dir = Path::new("results");
    if let Err(e) = fs::create_dir_all(dir) {
        eprintln!("could not create {}: {e}", dir.display());
        exit(1);
    }
    for (_, render) in OUTPUTS {
        let output = render();
        println!("{}", output.text);
        for (stem, report) in &output.reports {
            fs::write(dir.join(format!("{stem}.csv")), report.to_csv())
                .unwrap_or_else(|e| eprintln!("warning: could not write {stem}.csv: {e}"));
        }
    }
}

fn obs(duration: Option<&String>) {
    let mut cfg = obs_report::default_config();
    if let Some(arg) = duration {
        let Some(d) = obs_report::parse_duration(arg) else {
            eprintln!("usage: repro obs_report [duration_seconds]");
            exit(2);
        };
        cfg.duration = d;
    }
    let mut stdout = String::new();
    let done = obs_report::report(cfg, &mut stdout, |path, body| fs::write(path, body));
    print!("{stdout}");
    if let Err(e) = done {
        eprintln!("{e}");
        exit(1);
    }
}
