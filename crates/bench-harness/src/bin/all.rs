//! Runs every experiment and writes both text reports (stdout) and CSV
//! files under `results/`.
use std::fs;
use std::path::Path;

use bench_harness::experiments::*;
use bench_harness::Report;
use simt_sim::GpuGeneration;

fn emit(dir: &Path, name: &str, report: &Report) {
    print!("{}", report.to_text());
    println!();
    fs::write(dir.join(format!("{name}.csv")), report.to_csv())
        .unwrap_or_else(|e| eprintln!("warning: could not write {name}.csv: {e}"));
}

fn main() {
    let dir = Path::new("results");
    if let Err(e) = fs::create_dir_all(dir) {
        eprintln!("could not create {}: {e}", dir.display());
        std::process::exit(1);
    }

    let analyses = traces::analyze_all(1.0, 0xD0E);
    emit(dir, "table1", &traces::table1(&analyses));
    emit(dir, "figure2_umq", &traces::figure2(&analyses));
    emit(dir, "figure2_prq", &traces::figure2_prq(&analyses));
    emit(dir, "figure6a", &traces::figure6a(&analyses));
    emit(dir, "queue_usage", &traces::queue_usage(&analyses));
    emit(dir, "recommendations", &traces::recommendations(&analyses));

    let f4 = figure4::run(&figure4::DEFAULT_LENS, 7);
    emit(dir, "figure4", &figure4::report(&f4));

    let f5 = figure5::run(&figure5::DEFAULT_QUEUES, &figure5::DEFAULT_LENS, 7);
    emit(dir, "figure5", &figure5::report(&f5));
    let q = [4usize, 16];
    let l = [1024usize];
    let p = figure5::run_generation(GpuGeneration::PascalGtx1080, &q, &l, 7);
    let k = figure5::run_generation(GpuGeneration::KeplerK80, &q, &l, 7);
    let m = figure5::run_generation(GpuGeneration::MaxwellM40, &q, &l, 7);
    println!(
        "GTX1080 speedup: {:.2}x over K80 (paper: 2.12x), {:.2}x over M40 (paper: 1.56x)\n",
        figure5::mean_speedup(&p, &k),
        figure5::mean_speedup(&p, &m)
    );

    let f6b = figure6b::run(&figure6b::DEFAULT_LENS, &figure6b::DEFAULT_CTAS, 7);
    for gen in GpuGeneration::ALL {
        emit(
            dir,
            &format!("figure6b_{}", gen.short_name().to_lowercase()),
            &figure6b::report(&f6b, gen),
        );
    }

    let t2 = table2::run(1024, 17);
    emit(dir, "table2", &table2::report(&t2));

    let cpu = cpu_baseline::run(&cpu_baseline::DEFAULT_LENS, 7);
    emit(dir, "cpu_baseline", &cpu_baseline::report(&cpu));

    let prof = profile::run(1024, 5);
    emit(dir, "profile", &profile::report(&prof));

    let comp = unexpected::run_compaction(&[256, 512, 1024], 5);
    let frac = unexpected::run_fraction(1024, &[10, 25, 50, 75, 90, 100], 5);
    let (a, b) = unexpected::report(&comp, &frac);
    emit(dir, "compaction", &a);
    emit(dir, "match_fraction", &b);

    emit(
        dir,
        "ablation_pipelining",
        &ablations::pipelining(&[128, 256, 512, 992], 3),
    );
    emit(
        dir,
        "ablation_window",
        &ablations::window_sweep(512, &[16, 32, 64, 128], 3),
    );
    emit(
        dir,
        "ablation_long_queues",
        &ablations::long_queues(&[2048, 4096, 8192], 3),
    );
    emit(
        dir,
        "ablation_hash_design",
        &ablations::hash_design(1024, 3),
    );

    let sc = scaling::run(&scaling::DEFAULT_RANKS, 8, 7);
    emit(dir, "scaling", &scaling::report(&sc));
}
