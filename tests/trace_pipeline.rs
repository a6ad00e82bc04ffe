//! End-to-end trace pipeline: generate → analyse → feed the
//! reconstructed queues into the GPU matchers.

use msg_match::prelude::*;
use msg_match::reference::verify_mpi_matching;
use proxy_traces::{analyze, generate, AppModel, GenOptions, TraceEvent};
use simt_sim::{Gpu, GpuGeneration};

fn small(name: &str) -> proxy_traces::Trace {
    let model = AppModel::by_name(name).expect("known app");
    generate(
        &model,
        GenOptions {
            depth_scale: 0.15,
            ranks: Some(24),
            seed: 42,
            rank0_funnel: 0,
        },
    )
}

#[test]
fn full_pipeline_for_every_app() {
    for model in AppModel::all() {
        let trace = generate(
            &model,
            GenOptions {
                depth_scale: 0.1,
                ranks: Some(16),
                seed: 1,
                rank0_funnel: 0,
            },
        );
        trace.validate().unwrap();
        let a = analyze(&trace);
        assert_eq!(a.app, model.name);
        assert!(a.messages > 0);
        assert!(
            a.tag_bits() <= 16,
            "{} needs {} tag bits",
            model.name,
            a.tag_bits()
        );
    }
}

/// Reconstruct one destination's unexpected-message burst from the trace
/// and run the GPU matrix matcher over it — the exact scenario the
/// paper's synthetic benchmarks model.
#[test]
fn trace_derived_queues_match_on_gpu() {
    let trace = small("Crystal Router");
    let dst = 3u32;
    // Phase 0 is unexpected-heavy: collect arrivals at `dst` until the
    // first post, then the posts.
    let mut msgs: Vec<Envelope> = Vec::new();
    let mut reqs: Vec<RecvRequest> = Vec::new();
    for ev in &trace.events {
        match ev {
            TraceEvent::Send { dst: d, .. } if *d == dst && reqs.is_empty() => {
                msgs.push(ev.envelope().unwrap());
            }
            TraceEvent::PostRecv { rank, .. } if *rank == dst => {
                reqs.push(ev.request().unwrap());
                if reqs.len() == msgs.len() {
                    break;
                }
            }
            _ => {}
        }
    }
    assert!(!msgs.is_empty(), "deep phase must produce traffic");
    assert!(msgs.len() <= MAX_BATCH);

    let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
    let r = MatrixMatcher::default().match_batch(&mut gpu, &msgs, &reqs);
    let assignment: Vec<Option<usize>> =
        r.assignment.iter().map(|a| a.map(|v| v as usize)).collect();
    verify_mpi_matching(&msgs, &reqs, &assignment).unwrap();
    assert_eq!(
        r.matches as usize,
        reqs.len(),
        "every post matches in the deep phase"
    );
}

/// The wildcard-using apps (MiniDFT, MiniFE) produce receive streams the
/// relaxed matchers must reject — the feasibility boundary of Table I.
#[test]
fn wildcard_apps_are_rejected_by_relaxed_engines() {
    let trace = small("MiniDFT");
    let reqs: Vec<RecvRequest> = trace
        .events
        .iter()
        .filter_map(|e| e.request())
        .take(500)
        .collect();
    assert!(
        reqs.iter().any(|r| r.has_wildcard()),
        "MiniDFT must use ANY_SOURCE"
    );
    let msgs: Vec<Envelope> = trace
        .events
        .iter()
        .filter_map(|e| e.envelope())
        .take(500)
        .collect();
    let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
    assert!(PartitionedMatcher::new(4)
        .match_batch(&mut gpu, &msgs, &reqs)
        .is_err());
    assert!(HashMatcher::default()
        .match_batch(&mut gpu, &msgs, &reqs)
        .is_err());
    // The compliant matcher handles it fine.
    let r = MatrixMatcher::default().match_iterative(&mut gpu, &msgs, &reqs);
    assert!(r.matches > 0);
}

/// The analyzer's queue depths drive matcher configuration: apps with
/// sub-512 queues fit a single batch; the two outliers need iteration.
#[test]
fn depth_classification_drives_batching() {
    for name in ["LULESH", "Nekbone"] {
        let model = AppModel::by_name(name).unwrap();
        let trace = generate(
            &model,
            GenOptions {
                depth_scale: 1.0,
                ranks: Some(12),
                seed: 3,
                rank0_funnel: 0,
            },
        );
        let a = analyze(&trace);
        if name == "LULESH" {
            assert!(a.umq_depth.max <= 512.0, "LULESH stays under 512");
        } else {
            assert!(a.umq_depth.mean > 1024.0, "Nekbone exceeds one batch");
        }
    }
}
