//! Observability report driver: `obs_report [duration_seconds]` runs a
//! traced service plus five per-engine flow demos and exports one merged
//! Chrome trace (`OBS_trace.json`), the deterministic Prometheus
//! exposition (`OBS_metrics.prom`), the wall-clock scheduler exposition
//! (`OBS_wall.prom`) and a stall-attribution table on stdout.
use bench_harness::experiments::obs_report;

fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(1);
}

fn main() {
    let mut cfg = obs_report::default_config();
    if let Some(arg) = std::env::args().nth(1) {
        match arg.parse::<f64>() {
            Ok(d) if d > 0.0 => cfg.duration = d,
            _ => {
                eprintln!("usage: obs_report [duration_seconds]");
                std::process::exit(2);
            }
        }
    }

    let artefacts = obs_report::run(cfg);
    let demos = obs_report::flow_demos(cfg.seed);
    let merged = obs_report::merged_trace(&artefacts, &demos);
    let events = match obs_report::trace_event_count(&merged) {
        Ok(0) => fail("exported trace holds no events"),
        Ok(n) => n,
        Err(e) => fail(&format!("exported trace failed validation: {e}")),
    };

    print!(
        "{}",
        obs_report::stall_table(&artefacts.report.metrics).to_text()
    );
    println!();
    let m = &artefacts.report.metrics;
    println!(
        "service: {} matched, {} spilled, sustained {:.2} M msgs/s over {} shards",
        m.total_matched,
        m.total_spilled,
        m.sustained_rate / 1e6,
        m.shards.len()
    );
    let prof = &artefacts.report.scheduler_profile;
    println!(
        "wall clock ({}): {:.1} ms, barrier-wait fraction {:.2}",
        prof.scheduler,
        prof.wall_seconds * 1e3,
        prof.barrier_wait_fraction()
    );
    for d in &demos {
        println!("flow demo: {}", d.label);
    }

    for (path, body) in [
        ("OBS_trace.json", &merged),
        ("OBS_metrics.prom", &artefacts.exposition),
        ("OBS_wall.prom", &artefacts.wall_prom),
    ] {
        match std::fs::write(path, body) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => fail(&format!("could not write {path}: {e}")),
        }
    }
    println!("trace events: {events}");
}
