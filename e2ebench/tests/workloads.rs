//! Small-size runs of every workload, the metric names against `BENCHMARK.json`, and
//! the negative case of the fit check.

use std::path::PathBuf;

use slimfast_e2ebench::check::FitCheck;
use slimfast_e2ebench::inputs::{Instance, Stream, StreamShape};
use slimfast_e2ebench::report::Metrics;
use slimfast_e2ebench::workloads::{batch_instances, run_batch, run_stream, Run, StreamSizes};

/// Runs `f` on a fresh [`Run`] whose scratch directory is removed afterwards.
fn in_scratch(tag: &str, traced: bool, f: impl FnOnce(&mut Run)) -> Run {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut run = Run::new(traced, dir.clone());
    f(&mut run);
    std::fs::remove_dir_all(&dir).unwrap();
    run
}

fn small_stream_sizes() -> StreamSizes {
    StreamSizes {
        shape: StreamShape {
            sources: 30,
            accuracy_mean: 0.72,
            accuracy_spread: 0.2,
            domain_size: 2,
            claims_per_object: 5,
            label_share: 0.1,
        },
        horizon_claims: 2_000,
        eviction_batch: 64,
        refit_every: 500,
        objects_per_step: 20,
        steps_per_phase: 10,
        query_batches_per_step: 2,
        checkpoints_per_phase: 1,
        recovers_per_phase: 1,
        phase_seconds: 1.0,
    }
}

fn small_stream(seed: u64, sizes: &StreamSizes) -> Stream {
    Stream::new(seed, sizes.shape.clone())
}

/// Metric names of one section of `BENCHMARK.json`, in file order.
fn benchmark_names(section: &str) -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap();
    let start = text.find(&format!("\"{section}\"")).unwrap();
    let body = &text[start..];
    let body = &body[..body.find(']').unwrap()];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').unwrap()].to_string())
        .collect()
}

fn assert_names(metrics: &Metrics, section: &str) {
    let ours: Vec<&str> = metrics.names().collect();
    assert_eq!(
        ours,
        benchmark_names(section),
        "{section} names differ from BENCHMARK.json"
    );
}

fn run_small_batch(workload: &str, traced: bool) -> Run {
    let instances = batch_instances(workload, true);
    in_scratch(workload, traced, |run| {
        run_batch(workload, &instances, 4, 3, 0.0, run).unwrap();
    })
}

#[test]
fn fuse_em_small_round() {
    let run = run_small_batch("fuse-em", false);
    // Stocks and Demonstrations, each: one fit, four query batches, three
    // checkpoints and two recovers.
    assert_eq!(run.rounds, 1);
    assert_eq!(run.attempted, 2 * 10);
    // EM's flipped fixed point fails the Stocks fit; every other operation passes.
    assert!(run.failed <= 1, "{:?}", run.failures);
    assert!(
        run.failures.iter().all(|f| f.starts_with("Stocks:")),
        "{:?}",
        run.failures
    );
    let metrics = run.end_to_end();
    assert_names(&metrics, "end_to_end");
    for name in metrics.names().filter(|&n| n != "query_batch_p99_us") {
        let value = metrics.get(name).unwrap();
        assert!(value.is_finite() && value > 0.0, "{name} = {value}");
    }
}

#[test]
fn fuse_erm_small_round_passes() {
    let run = run_small_batch("fuse-erm", false);
    assert_eq!(run.attempted, 10);
    assert_eq!(run.failed, 0, "{:?}", run.failures);
}

#[test]
fn serve_stream_small_phase_passes() {
    let sizes = small_stream_sizes();
    let stream = small_stream(5, &sizes);
    let run = in_scratch("serve-stream", false, |run| {
        run_stream(&stream, &sizes, 1, run).unwrap();
    });
    assert_eq!(run.rounds, 1);
    // Per phase: ten ingests, twenty query batches, the quality check, a checkpoint
    // and a recover.
    assert_eq!(run.attempted, 10 + 20 + 3);
    assert_eq!(run.failed, 0, "{:?}", run.failures);
    let metrics = run.end_to_end();
    assert!(metrics.get("fused_accuracy").unwrap() > 0.5);
}

#[test]
fn traced_runs_report_every_per_layer_metric() {
    let mut batch = run_small_batch("fuse-erm", true);
    slimfast_e2ebench::workloads::kernel_probes(&mut batch.tracer);
    let metrics = batch.per_layer();
    assert_names(&metrics, "per_layer");
    for name in metrics.names() {
        let value = metrics.get(name).unwrap();
        assert!(value.is_finite() && value >= 0.0, "{name} = {value}");
    }
    let sizes = small_stream_sizes();
    let run = in_scratch("serve-stream-traced", true, |run| {
        run_stream(&small_stream(6, &sizes), &sizes, 1, run).unwrap();
    });
    assert_eq!(run.failed, 0, "{:?}", run.failures);
    let layers = run.tracer.layer_times();
    for span in [
        "core.serve.checkpoint",
        "data.snapshot.decode",
        "core.learn.fit",
    ] {
        assert!(layers[span].calls > 0, "{span} was not traced");
    }
}

/// Every object's fused value swapped for another value its sources claimed must
/// fail the fit check, on every workload's inputs.
#[test]
fn swapped_assignment_fails_the_check() {
    let sizes = small_stream_sizes();
    let mut instances: Vec<Instance> = batch_instances("fuse-em", true);
    instances.extend(batch_instances("fuse-erm", true));
    instances.push(small_stream(1, &sizes).instance(0..400));
    for inst in &instances {
        let mut other = vec![None; inst.objects.len()];
        for &(_, o, v) in &inst.claims {
            if v != inst.truth[o as usize] {
                other[o as usize] = Some(v);
            }
        }
        let truth = FitCheck::score(&inst.eval_objects, &inst.truth, &inst.vote, |o| {
            Some(inst.truth[o as usize])
        });
        assert!(truth.passes(), "{}: the truth itself fails", inst.name);
        let swapped = FitCheck::score(&inst.eval_objects, &inst.truth, &inst.vote, |o| {
            other[o as usize]
        });
        assert_eq!(swapped.fused_accuracy, 0.0, "{}", inst.name);
        assert!(
            !swapped.passes(),
            "{}: a swapped assignment passes",
            inst.name
        );
    }
}
