//! Runs the design-choice ablations (pipelining, window size, long-queue
//! order, hash-table design).
use bench_harness::experiments::ablations;

fn main() {
    print!(
        "{}",
        ablations::pipelining(&[128, 256, 512, 992], 3).to_text()
    );
    println!();
    print!(
        "{}",
        ablations::window_sweep(512, &[16, 32, 64, 128], 3).to_text()
    );
    println!();
    print!(
        "{}",
        ablations::long_queues(&[2048, 4096, 8192], 3).to_text()
    );
    println!();
    print!("{}", ablations::hash_design(1024, 3).to_text());
}
