//! `e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for about the given time (the batch workloads for whole rounds
//! until it is up, the serving workload for a number of phases sized to it) and
//! prints a provenance line, then the
//! result line: `{"correct", "attempted", "failed", "metrics"}`. With `--trace 1` the
//! metrics are the per-layer ones, and the recorded spans are written to
//! `out/trace-<workload>-<seed>.jsonl` beside this package's manifest.

use std::path::PathBuf;
use std::process::ExitCode;

use slimfast_e2ebench::inputs::Stream;
use slimfast_e2ebench::report::{json_string, provenance, result_line};
use slimfast_e2ebench::workloads::{
    batch_instances, kernel_probes, query_batches, run_batch, run_stream, scratch_dir, Run,
    StreamSizes, WORKLOADS,
};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("e2ebench: {message}");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let scratch = scratch_dir(&out_dir, &args.workload);
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("e2ebench: cannot create {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    let mut run = Run::new(args.trace, scratch.clone());
    let (sizes, outcome) = match args.workload.as_str() {
        "serve-stream" => {
            let sizes = StreamSizes::full();
            let phases = sizes.phases_for(args.seconds);
            let stream = Stream::new(args.seed, sizes.shape.clone());
            (
                format!("phases: {phases}; {sizes:?}"),
                run_stream(&stream, &sizes, phases, &mut run),
            )
        }
        workload => {
            let instances = batch_instances(workload, false);
            let batches = query_batches(workload);
            let shape: Vec<String> = instances
                .iter()
                .map(|i| {
                    format!(
                        "{}: {} sources, {} objects, {} claims, {} labeled",
                        i.name,
                        i.sources.len(),
                        i.objects.len(),
                        i.claims.len(),
                        i.num_labeled()
                    )
                })
                .collect();
            let outcome = run_batch(
                workload,
                &instances,
                batches,
                args.seed,
                args.seconds,
                &mut run,
            );
            (
                format!(
                    "query batches per instance: {batches}; {}",
                    shape.join("; ")
                ),
                outcome,
            )
        }
    };
    if args.trace {
        kernel_probes(&mut run.tracer);
    }
    let _ = std::fs::remove_dir_all(&scratch);
    if let Err(e) = outcome {
        eprintln!("e2ebench: {} stopped: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    for failure in &run.failures {
        eprintln!("e2ebench: failed operation: {failure}");
    }
    let metrics = if args.trace {
        let path = out_dir.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = std::fs::write(&path, run.tracer.spans_jsonl()) {
            eprintln!("e2ebench: cannot write {}: {e}", path.display());
        }
        run.per_layer()
    } else {
        run.end_to_end()
    };
    println!(
        "{}",
        provenance(&[
            ("workload", json_string(&args.workload)),
            ("seed", args.seed.to_string()),
            ("seconds", args.seconds.to_string()),
            ("trace", args.trace.to_string()),
            ("rounds", run.rounds.to_string()),
            ("sizes", json_string(&sizes)),
        ])
    );
    // A metric that could not be taken (no sample, or not finite) makes the run wrong.
    let correct = run.attempted > run.failed
        && metrics
            .names()
            .all(|name| metrics.get(name).is_some_and(f64::is_finite));
    println!(
        "{}",
        result_line(correct, run.attempted, run.failed, &metrics)
    );
    ExitCode::SUCCESS
}
