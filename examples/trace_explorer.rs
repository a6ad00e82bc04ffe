//! Trace explorer: generate and analyse any of the twelve modelled DOE
//! proxy applications.
//!
//! ```text
//! cargo run --release -p examples --bin trace_explorer -- Nekbone
//! cargo run --release -p examples --bin trace_explorer -- LULESH 0.5
//! ```
//!
//! Arguments: application name (default: LULESH) and an optional queue
//! depth scale (default 1.0).

use proxy_traces::{analyze, generate, AppModel, GenOptions};

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "LULESH".to_string());
    let scale: f64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(1.0);

    let Some(model) = AppModel::by_name(&name) else {
        eprintln!("unknown application '{name}'. Known:");
        for m in AppModel::all() {
            eprintln!("  {}", m.name);
        }
        std::process::exit(1);
    };

    println!("generating {} (scale {scale})…", model.name);
    let trace = generate(
        &model,
        GenOptions {
            depth_scale: scale,
            ranks: None,
            seed: 0xD0E,
            rank0_funnel: 0,
        },
    );
    trace.validate().expect("generated trace is well formed");

    println!(
        "trace: {} events, {} sends",
        trace.events.len(),
        trace.send_count()
    );

    let a = analyze(&trace);
    println!("— analysis —");
    println!("ranks:              {}", a.ranks);
    println!("messages:           {}", a.messages);
    println!("communicators:      {}", a.communicators);
    println!("peers (median):     {:.0}", a.peers.median);
    println!(
        "distinct tags:      {} ({} bits needed)",
        a.distinct_tags,
        a.tag_bits()
    );
    println!("ANY_SOURCE posts:   {}", a.src_wildcards);
    println!("ANY_TAG posts:      {}", a.tag_wildcards);
    println!("unexpected arrivals: {:.1}%", a.unexpected_pct);
    println!(
        "UMQ depth: min {:.0} / q1 {:.0} / median {:.0} / mean {:.0} / q3 {:.0} / max {:.0}",
        a.umq_depth.min,
        a.umq_depth.q1,
        a.umq_depth.median,
        a.umq_depth.mean,
        a.umq_depth.q3,
        a.umq_depth.max
    );
    println!(
        "PRQ depth: min {:.0} / q1 {:.0} / median {:.0} / mean {:.0} / q3 {:.0} / max {:.0}",
        a.prq_depth.min,
        a.prq_depth.q1,
        a.prq_depth.median,
        a.prq_depth.mean,
        a.prq_depth.q3,
        a.prq_depth.max
    );
    println!("mean UMQ search len: {:.1}", a.mean_search_len);
    println!("tuple uniqueness:    {:.2}%", a.tuple_uniqueness_pct);
    println!(
        "verdict: {} for hash matching, {} queues exploitable without ANY_SOURCE",
        if a.tuple_uniqueness_pct < 10.0 {
            "friendly"
        } else {
            "hostile"
        },
        a.peers.median as u32
    );
}
