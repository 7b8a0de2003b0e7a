//! The three workloads: `fuse-em`, `fuse-erm` and `serve-stream`.
//!
//! Every workload runs whole rounds until its time is up, so each run attempts the
//! same operations in the same proportions. A batch round fuses every instance from
//! CSV bytes and then serves each fused result: publish, batched posterior queries,
//! checkpoint and recover. A serving round is one phase of the stream: ingest and
//! query steps, then drain, a phase-end refit, the quality check, a checkpoint and
//! recovers. Every operation is checked; see [`crate::check`].

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rand::Rng;
use slimfast_core::em::train_em_compiled;
use slimfast_core::erm::train_erm_compiled;
use slimfast_core::{
    CompiledProblem, FusionEngine, ModelSnapshot, OptimizerDecision, RefitPolicy, ServingEngine,
    ServingReader, SlimFast, SlimFastConfig, SlimFastModel, WindowConfig,
};
use slimfast_data::{
    read_features_csv, read_ground_truth_csv, read_observations_csv, DataError, Dataset,
    FeatureMatrix, FusionInput, GroundTruth, NamedObservation, ObjectId, SnapshotDir,
    SourceAccuracies, TruthAssignment,
};
use slimfast_datagen::{
    AccuracyModel, DatasetKind, FeatureModel, ObservationPattern, SyntheticConfig,
};
use slimfast_optim::{kernels, minimize};

use crate::check::{self, FitCheck};
use crate::clock::thread_cpu_s;
use crate::inputs::{seeded, Instance, Stream, StreamShape};
use crate::report::{median, quantile, rss_peak_mb, Metrics, PerRound};
use crate::trace::{span_overhead_ns, Tracer};

/// Seed of the four Table-1 simulations. Fixed, so the two fits that EM's flipped
/// fixed point breaks fail identically on every `--seed`.
pub const TABLE1_SEED: u64 = 7;

/// Seed of the `fuse-erm` instance. Fixed: ERM's SGD stops on a loss tolerance, so
/// its epochs, and the round time, differ by up to 2x between instances drawn from
/// different seeds, which would swamp any change a run is meant to show.
pub const ERM_SEED: u64 = 11;

/// Objects per batched posterior call.
pub const QUERY_BATCH: usize = 256;

/// Checkpoints and recovers per served instance on the batch workloads. A checkpoint
/// ends in an fsync whose time varies widely from call to call, so each is repeated
/// to give the medians enough samples.
const BATCH_CHECKPOINTS: usize = 3;
const BATCH_RECOVERS: usize = 2;

/// `setup_s` is the median of this many samples per run...
const SETUP_SAMPLES: usize = 7;
/// ...each the mean of back-to-back setups that last at least this long together.
/// One warm-up setup, not counted, sizes them.
const SETUP_SAMPLE_SECONDS: f64 = 0.3;

/// Sets up once to warm up and then [`SETUP_SAMPLES`] timed samples, pushing the
/// seconds per setup of each sample to `setup_s`. Each setup's result is dropped
/// before the next, outside the timed region, so a setup reuses the memory the one
/// before it freed; the last is returned.
fn time_setups<T>(
    setup_s: &mut Vec<f64>,
    mut set_up: impl FnMut() -> Result<T, DataError>,
) -> Result<T, DataError> {
    let start = Instant::now();
    let mut last = set_up()?;
    let per_sample = (SETUP_SAMPLE_SECONDS / start.elapsed().as_secs_f64())
        .ceil()
        .clamp(1.0, 1000.0) as usize;
    for _ in 0..SETUP_SAMPLES {
        let mut sample_s = 0.0;
        for _ in 0..per_sample {
            drop(last);
            let start = Instant::now();
            last = set_up()?;
            sample_s += start.elapsed().as_secs_f64();
        }
        setup_s.push(sample_s / per_sample as f64);
    }
    Ok(last)
}

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["fuse-em", "fuse-erm", "serve-stream"];

/// Query batches per served instance per round on `fuse-em` (four instances) and
/// `fuse-erm` (one): at least 1000 per round, so every run has a p99.
pub fn query_batches(workload: &str) -> usize {
    if workload == "fuse-em" {
        256
    } else {
        1024
    }
}

/// Sizes of the serving workload.
#[derive(Debug, Clone)]
pub struct StreamSizes {
    pub shape: StreamShape,
    pub horizon_claims: usize,
    pub eviction_batch: usize,
    pub refit_every: usize,
    pub objects_per_step: usize,
    pub steps_per_phase: usize,
    pub query_batches_per_step: usize,
    pub checkpoints_per_phase: usize,
    pub recovers_per_phase: usize,
    /// Mean length of a phase on the reference machine, which sizes a run's phases.
    pub phase_seconds: f64,
}

impl StreamSizes {
    pub fn full() -> Self {
        Self {
            shape: StreamShape {
                sources: 200,
                accuracy_mean: 0.72,
                accuracy_spread: 0.2,
                domain_size: 2,
                claims_per_object: 5,
                label_share: 0.1,
            },
            horizon_claims: 20_000,
            eviction_batch: 256,
            refit_every: 15_000,
            objects_per_step: 50,
            steps_per_phase: 100,
            query_batches_per_step: 10,
            checkpoints_per_phase: 8,
            recovers_per_phase: 4,
            phase_seconds: 2.2,
        }
    }

    /// Phases in a run of about `seconds`: the same for every run of that length, so
    /// every run ends with the engine in the same state.
    pub fn phases_for(&self, seconds: f64) -> usize {
        (seconds / self.phase_seconds).round().max(1.0) as usize
    }

    /// Objects whose claims are all live in the window.
    pub fn live_objects(&self) -> usize {
        self.horizon_claims / self.shape.claims_per_object
    }
}

/// The learner configuration every workload fits with. `SLIMFAST_THREADS` sets the
/// thread count when present; otherwise fits run on one thread, so the serving
/// client and its background refit keep at most two threads busy.
pub fn fit_config() -> SlimFastConfig {
    let config = SlimFastConfig::default();
    if std::env::var_os("SLIMFAST_THREADS").is_some() {
        config
    } else {
        config.with_threads(1)
    }
}

/// Everything one run accumulates.
#[derive(Debug)]
pub struct Run {
    pub tracer: Tracer,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub rounds: usize,
    setup_s: Vec<f64>,
    fuse_s: PerRound,
    fused_accuracy: PerRound,
    source_acc_mae: PerRound,
    /// Claims ingested and CPU seconds inside the ingest calls, this round.
    ingest_claims: f64,
    ingest_s: f64,
    /// Posteriors returned and CPU seconds inside the query calls, this round.
    query_posteriors: f64,
    query_s: f64,
    /// Latencies of this round's query batches.
    query_batch_us: Vec<f64>,
    /// One value per round, taken from the fields above when the round ends.
    ingest_claims_per_s: PerRound,
    query_posteriors_per_s: PerRound,
    query_batch_p50_us: PerRound,
    query_batch_p99_us: PerRound,
    refit_s: PerRound,
    checkpoint_s: PerRound,
    recover_s: PerRound,
    counters: std::collections::HashMap<&'static str, f64>,
    scratch: PathBuf,
}

impl Run {
    pub fn new(traced: bool, scratch: PathBuf) -> Self {
        Self {
            tracer: Tracer::new(traced),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            rounds: 0,
            setup_s: Vec::new(),
            fuse_s: PerRound::default(),
            fused_accuracy: PerRound::default(),
            source_acc_mae: PerRound::default(),
            ingest_claims: 0.0,
            ingest_s: 0.0,
            query_posteriors: 0.0,
            query_s: 0.0,
            query_batch_us: Vec::new(),
            ingest_claims_per_s: PerRound::default(),
            query_posteriors_per_s: PerRound::default(),
            query_batch_p50_us: PerRound::default(),
            query_batch_p99_us: PerRound::default(),
            refit_s: PerRound::default(),
            checkpoint_s: PerRound::default(),
            recover_s: PerRound::default(),
            counters: Default::default(),
            scratch,
        }
    }

    /// Counts one operation, failed unless `ok`.
    fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 16 {
                self.failures.push(what());
            }
        }
    }

    fn snapshot_dir(&self, tag: &str) -> Result<SnapshotDir, DataError> {
        let path = self.scratch.join(tag);
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        Ok(SnapshotDir::open(path)?.with_retention(2))
    }

    /// Times one batched posterior call and checks every posterior in it.
    /// The call is timed on the thread's CPU clock, see [`crate::clock`].
    fn query(&mut self, reader: &mut ServingReader, ids: &[ObjectId]) -> bool {
        let start = thread_cpu_s();
        let posteriors = reader.posteriors(ids);
        let elapsed = thread_cpu_s() - start;
        self.query_s += elapsed;
        self.query_posteriors += ids.len() as f64;
        self.query_batch_us.push(elapsed * 1e6);
        let ok = posteriors.len() == ids.len() && posteriors.iter().all(|p| check::posterior_ok(p));
        self.op(ok, || {
            "a batched posterior is empty, not finite or not normalised".into()
        });
        ok
    }

    /// Checkpoints the published snapshot of `serving` into `dir`; the traced run
    /// splits the checkpoint into encode and write spans.
    fn checkpoint(&mut self, serving: &ServingEngine, dir: &SnapshotDir) -> bool {
        let start = Instant::now();
        let result = if self.tracer.enabled() {
            self.tracer.span("core.serve.checkpoint", |tr| {
                let snapshot = serving.snapshot();
                let bytes = tr.span("data.snapshot.encode", |_| snapshot.to_bytes())?;
                let live = snapshot.dataset().num_observations().max(1);
                tr.sample(
                    "data.snapshot.bytes_per_claim",
                    bytes.len() as f64 / live as f64,
                );
                tr.span("data.snapshot.write_generation", |_| {
                    dir.write_generation(&bytes)
                })
            })
        } else {
            serving.checkpoint(dir)
        };
        self.checkpoint_s.push(start.elapsed().as_secs_f64());
        let ok = result.is_ok();
        self.op(ok, || format!("checkpoint failed: {result:?}"));
        ok
    }

    /// Recovers a serving tier from `dir`, timed up to its first served posterior,
    /// and checks that it serves `expected` for `ids` bit for bit.
    fn recover(
        &mut self,
        dir: &SnapshotDir,
        estimator: &SlimFast,
        policy: RefitPolicy,
        ids: &[ObjectId],
        expected: &[Vec<f64>],
    ) -> bool {
        let start = Instant::now();
        let recovered = if self.tracer.enabled() {
            self.tracer.span("core.serve.recover", |tr| {
                let generation = dir
                    .latest()?
                    .ok_or_else(|| DataError::Invalid("no generation to recover".into()))?;
                let bytes = dir.read_generation(generation)?;
                let snapshot = tr.span("data.snapshot.decode", |_| {
                    ModelSnapshot::from_bytes(&bytes)
                })?;
                let serving = ServingEngine::from_snapshot(snapshot, estimator.clone(), policy);
                let first = serving.reader().posteriors(&ids[..1]);
                Ok((serving, first))
            })
        } else {
            ServingEngine::recover(dir, estimator.clone(), policy).map(|serving| {
                let first = serving.reader().posteriors(&ids[..1]);
                (serving, first)
            })
        };
        self.recover_s.push(start.elapsed().as_secs_f64());
        let ok = match &recovered {
            Ok((serving, first)) => {
                let all = serving.reader().posteriors(ids);
                check::bitwise_equal(first, &expected[..1]) && check::bitwise_equal(&all, expected)
            }
            Err(_) => false,
        };
        self.op(ok, || {
            "recovered posteriors differ from the checkpointed engine's".into()
        });
        ok
    }

    /// Checkpoints `serving` into `dir` `checkpoints` times, then recovers from the
    /// last generation `recovers` times. Recovers after a failed last checkpoint
    /// count as failed.
    #[allow(clippy::too_many_arguments)]
    fn checkpoint_and_recover(
        &mut self,
        serving: &ServingEngine,
        dir: &SnapshotDir,
        (checkpoints, recovers): (usize, usize),
        estimator: &SlimFast,
        policy: RefitPolicy,
        ids: &[ObjectId],
        expected: &[Vec<f64>],
    ) {
        let mut written = false;
        for _ in 0..checkpoints {
            written = self.checkpoint(serving, dir);
        }
        for _ in 0..recovers {
            if written {
                self.recover(dir, estimator, policy, ids, expected);
            } else {
                self.op(false, || {
                    "nothing to recover after a failed checkpoint".into()
                });
            }
        }
    }

    /// The end-to-end metrics of the run: `setup_s` is the median of its samples,
    /// `rss_peak_mb` the process's peak, and every other metric is taken per round
    /// and summarised as a [`PerRound`].
    pub fn end_to_end(&self) -> Metrics {
        let mut m = Metrics::default();
        m.put("setup_s", median(&self.setup_s), "s");
        m.put("fuse_s", self.fuse_s.value(), "s");
        m.put("fused_accuracy", self.fused_accuracy.value(), "ratio");
        m.put("source_acc_mae", self.source_acc_mae.value(), "ratio");
        m.put("rss_peak_mb", rss_peak_mb(), "MB");
        m.put(
            "ingest_claims_per_s",
            self.ingest_claims_per_s.value(),
            "1/s",
        );
        m.put(
            "query_posteriors_per_s",
            self.query_posteriors_per_s.value(),
            "1/s",
        );
        m.put("query_batch_p50_us", self.query_batch_p50_us.value(), "us");
        m.put("query_batch_p99_us", self.query_batch_p99_us.value(), "us");
        m.put("refit_s", self.refit_s.value(), "s");
        m.put("checkpoint_s", self.checkpoint_s.value(), "s");
        m.put("recover_s", self.recover_s.value(), "s");
        m
    }

    /// The per-layer metrics of the traced run. Times are means per call; counts are
    /// per round (one batch round or one stream phase) unless named otherwise.
    pub fn per_layer(&self) -> Metrics {
        let tr = &self.tracer;
        let layers = tr.layer_times();
        let rounds = self.rounds.max(1) as f64;
        let per_call = |name: &str| {
            layers
                .get(name)
                .map_or(f64::NAN, |l| l.total_s / l.calls.max(1) as f64)
        };
        let med = |name: &str| median(tr.samples(name));
        let per_round = |name: &str| 0.0 + tr.samples(name).iter().sum::<f64>() / rounds;
        let mut m = Metrics::default();
        m.put("data.io.read_csv_s", per_call("data.io.read_csv"), "s");
        m.put(
            "data.io.read_csv_claims_per_s",
            med("data.io.read_csv_claims_per_s"),
            "1/s",
        );
        m.put(
            "data.io.read_aux_csv_s",
            per_call("data.io.read_aux_csv"),
            "s",
        );
        m.put(
            "data.dataset.bytes_per_claim",
            med("data.dataset.bytes_per_claim"),
            "B",
        );
        m.put(
            "data.dataset.compactions",
            per_round("data.dataset.compactions"),
            "count",
        );
        m.put(
            "core.optimizer.decide_s",
            per_call("core.optimizer.decide"),
            "s",
        );
        m.put(
            "core.compile.compile_s",
            per_call("core.compile.compile"),
            "s",
        );
        m.put(
            "core.compile.e_step_s",
            per_call("core.compile.e_step"),
            "s",
        );
        m.put("optim.sgd.m_step_s", per_call("optim.sgd.m_step"), "s");
        m.put(
            "optim.sgd.m_step_examples_per_s",
            med("optim.sgd.m_step_examples_per_s"),
            "1/s",
        );
        m.put("core.learn.fit_s", per_call("core.learn.fit"), "s");
        let iterations = tr.samples("core.em.iterations");
        m.put(
            "core.em.iterations",
            if iterations.is_empty() {
                0.0
            } else {
                median(iterations)
            },
            "count",
        );
        m.put("core.model.predict_s", per_call("core.model.predict"), "s");
        m.put(
            "core.model.source_accuracies_s",
            per_call("core.model.source_accuracies"),
            "s",
        );
        m.put("bench.round_s", per_call("bench.round"), "s");
        m.put(
            "bench.round_self_s",
            layers.get("bench.round").map_or(f64::NAN, |l| l.self_s) / rounds,
            "s",
        );
        for kernel in ["sigmoid_slice", "softmax_rows", "dot_csr"] {
            let name = format!("optim.kernels.{kernel}_melem_per_s");
            m.put(&name, med(&name), "Melem/s");
        }
        m.put("core.serve.publish_s", per_call("core.serve.publish"), "s");
        m.put(
            "core.engine.evictions",
            per_round("core.engine.evictions"),
            "count",
        );
        m.put(
            "core.serve.refits_installed",
            per_round("core.serve.refits_installed"),
            "count",
        );
        m.put(
            "core.serve.refit_failures",
            per_round("core.serve.refit_failures"),
            "count",
        );
        m.put(
            "core.serve.snapshot_swaps",
            per_round("core.serve.snapshot_swaps"),
            "count",
        );
        m.put(
            "core.serve.staleness_claims_p50",
            med("core.serve.staleness_claims"),
            "count",
        );
        m.put(
            "core.serve.checkpoint_s",
            per_call("core.serve.checkpoint"),
            "s",
        );
        m.put(
            "data.snapshot.encode_s",
            per_call("data.snapshot.encode"),
            "s",
        );
        m.put(
            "data.snapshot.write_generation_s",
            per_call("data.snapshot.write_generation"),
            "s",
        );
        m.put(
            "data.snapshot.bytes_per_claim",
            med("data.snapshot.bytes_per_claim"),
            "B",
        );
        m.put("core.serve.recover_s", per_call("core.serve.recover"), "s");
        m.put(
            "core.serve.recover_self_s",
            layers
                .get("core.serve.recover")
                .map_or(f64::NAN, |l| l.self_s / l.calls.max(1) as f64),
            "s",
        );
        m.put(
            "data.snapshot.decode_s",
            per_call("data.snapshot.decode"),
            "s",
        );
        m.put(
            "trace.span_overhead_ns",
            med("trace.span_overhead_ns"),
            "ns",
        );
        m.put(
            "trace.spans_per_round",
            tr.spans().len() as f64 / rounds,
            "count",
        );
        m.put("bench.rounds", self.rounds as f64, "count");
        m
    }

    /// Ends a round: records its rates and query-batch quantiles (a p99 only from
    /// at least 1000 batches) and closes its per-round samples.
    fn end_round(&mut self) {
        self.ingest_claims_per_s
            .push(self.ingest_claims / self.ingest_s);
        self.query_posteriors_per_s
            .push(self.query_posteriors / self.query_s);
        self.query_batch_p50_us.push(median(&self.query_batch_us));
        self.query_batch_p99_us
            .push(if self.query_batch_us.len() >= 1000 {
                quantile(&self.query_batch_us, 0.99)
            } else {
                f64::NAN
            });
        self.ingest_claims = 0.0;
        self.ingest_s = 0.0;
        self.query_posteriors = 0.0;
        self.query_s = 0.0;
        self.query_batch_us.clear();
        for samples in [
            &mut self.ingest_claims_per_s,
            &mut self.query_posteriors_per_s,
            &mut self.query_batch_p50_us,
            &mut self.query_batch_p99_us,
            &mut self.fuse_s,
            &mut self.fused_accuracy,
            &mut self.source_acc_mae,
            &mut self.refit_s,
            &mut self.checkpoint_s,
            &mut self.recover_s,
        ] {
            samples.end_round();
        }
        self.rounds += 1;
    }

    /// Records the growth of a cumulative counter since its previous sample.
    fn sample_delta(&mut self, name: &'static str, cumulative: f64) {
        let previous = self.counters.insert(name, cumulative).unwrap_or(0.0);
        self.tracer.sample(name, cumulative - previous);
    }
}

/// One fit: the model and what it fused.
struct Fit {
    model: SlimFastModel,
    decision: OptimizerDecision,
    assignment: TruthAssignment,
    accuracies: SourceAccuracies,
    /// The compiled instance, kept by the traced run for its EM-phase probes.
    problem: Option<CompiledProblem>,
}

/// Trains with `SlimFast::train`, then predicts and estimates source accuracies.
/// The traced run takes the same path one public layer call at a time instead, each
/// call wrapped in a span.
fn fit(
    dataset: &Dataset,
    features: &FeatureMatrix,
    labels: &GroundTruth,
    estimator: &SlimFast,
    tr: &mut Tracer,
) -> Fit {
    if tr.enabled() {
        return fit_layers(dataset, features, labels, estimator, tr);
    }
    let (model, decision) = estimator.train(&FusionInput::new(dataset, features, labels));
    let assignment = model.predict(dataset, features);
    let accuracies = model.source_accuracies(dataset, features);
    Fit {
        model,
        decision,
        assignment,
        accuracies,
        problem: None,
    }
}

/// Plans, compiles, learns, predicts and estimates source accuracies, each call
/// wrapped in a span: the path `SlimFast::train` takes, one layer at a time.
fn fit_layers(
    dataset: &Dataset,
    features: &FeatureMatrix,
    labels: &GroundTruth,
    estimator: &SlimFast,
    tr: &mut Tracer,
) -> Fit {
    let input = FusionInput::new(dataset, features, labels);
    let decision = tr.span("core.optimizer.decide", |_| estimator.plan(&input).decision);
    let problem = tr.span("core.compile.compile", |_| {
        CompiledProblem::compile(dataset, features, labels)
    });
    let config = estimator.config();
    let model = tr.span("core.learn.fit", |tr| match decision {
        OptimizerDecision::Em => {
            let (model, trace) = train_em_compiled(&problem, dataset, config);
            tr.sample("core.em.iterations", trace.iterations as f64);
            model
        }
        OptimizerDecision::Erm => train_erm_compiled(&problem, config),
    });
    let assignment = tr.span("core.model.predict", |_| model.predict(dataset, features));
    let accuracies = tr.span("core.model.source_accuracies", |_| {
        model.source_accuracies(dataset, features)
    });
    Fit {
        model,
        decision,
        assignment,
        accuracies,
        problem: Some(problem),
    }
}

/// One instance fused from its CSV bytes.
struct Fused {
    dataset: Dataset,
    features: FeatureMatrix,
    labels: GroundTruth,
    fit: Fit,
    /// Seconds from the start of the fit to its source accuracies.
    fit_s: f64,
}

/// Parses and fits one instance. Returns the fused instance and the CPU seconds spent
/// parsing claims.
fn fuse_instance(
    inst: &Instance,
    estimator: &SlimFast,
    tr: &mut Tracer,
) -> Result<(Fused, f64), DataError> {
    let start = Instant::now();
    let cpu_start = thread_cpu_s();
    let dataset = tr.span("data.io.read_csv", |_| {
        read_observations_csv(inst.claims_csv.as_slice())
    })?;
    let parse_cpu_s = thread_cpu_s() - cpu_start;
    let parse_s = start.elapsed().as_secs_f64();
    tr.sample(
        "data.io.read_csv_claims_per_s",
        inst.claims.len() as f64 / parse_s,
    );
    let (labels, features) = tr.span("data.io.read_aux_csv", |_| {
        Ok::<_, DataError>((
            read_ground_truth_csv(&dataset, inst.labels_csv.as_slice())?,
            read_features_csv(&dataset, inst.features_csv.as_slice())?,
        ))
    })?;
    let fit_start = Instant::now();
    let fit = fit(&dataset, &features, &labels, estimator, tr);
    let fit_s = fit_start.elapsed().as_secs_f64();
    Ok((
        Fused {
            dataset,
            features,
            labels,
            fit,
            fit_s,
        },
        parse_cpu_s,
    ))
}

/// One E-step and one M-step `minimize` over a compiled instance at `weights`: the
/// traced run's probes of the two EM phases, taken on every workload.
fn em_phase_probes(
    problem: &CompiledProblem,
    weights: &[f64],
    config: &SlimFastConfig,
    tr: &mut Tracer,
) {
    let mut trust = Vec::new();
    let mut posteriors = Vec::new();
    let mut targets = Vec::new();
    problem.trust_scores_into(weights, &mut trust);
    tr.span("core.compile.e_step", |_| {
        problem.e_step(&trust, config.threads.max(1), &mut posteriors, &mut targets)
    });
    let sgd = config.m_step_sgd();
    let start = Instant::now();
    let fit = tr.span("optim.sgd.m_step", |_| {
        minimize(
            &problem.claim_objective(&targets),
            Some(weights.to_vec()),
            &sgd,
        )
    });
    let examples = (problem.num_claims() * fit.epochs_run.max(1)) as f64;
    tr.sample(
        "optim.sgd.m_step_examples_per_s",
        examples / start.elapsed().as_secs_f64(),
    );
}

/// Records the dataset-layer counters of `dataset` in the traced run.
fn sample_storage(dataset: &Dataset, tr: &mut Tracer) {
    if tr.enabled() {
        let stats = dataset.storage_stats();
        tr.sample(
            "data.dataset.bytes_per_claim",
            stats.total_bytes() as f64 / stats.live_claims.max(1) as f64,
        );
        tr.sample("data.dataset.compactions", stats.compactions as f64);
    }
}

/// Scores a fused instance against the benchmark's truth and vote.
fn check_fit(inst: &Instance, fused: &Fused) -> (FitCheck, Option<f64>) {
    let dataset = &fused.dataset;
    let mut fused_value = vec![None; inst.objects.len()];
    for o in dataset.object_ids() {
        let ours = dataset.object_name(o).and_then(|n| inst.object_index(n));
        let value = fused
            .fit
            .assignment
            .get(o)
            .and_then(|v| dataset.value_name(v))
            .and_then(|n| inst.value_index(n));
        if let Some(ours) = ours {
            fused_value[ours as usize] = value;
        }
    }
    let score = FitCheck::score(&inst.eval_objects, &inst.truth, &inst.vote, |o| {
        fused_value[o as usize]
    });
    let estimated = dataset.source_ids().filter_map(|s| {
        dataset
            .source_name(s)
            .map(|name| (name, fused.fit.accuracies.get(s)))
    });
    let mae = check::source_accuracy_mae(estimated, &inst.true_accuracy);
    (score, mae)
}

/// `n` seeded object handles below `num_objects`.
fn query_ids(seed: u64, position: u64, num_objects: usize, n: usize) -> Vec<ObjectId> {
    let mut rng = seeded(seed, position);
    (0..n)
        .map(|_| ObjectId::new(rng.gen_range(0..num_objects.max(1))))
        .collect()
}

/// The batch workloads' instances. Both are fixed whatever `--seed` is, which picks
/// the objects queried when the fused results are served.
pub fn batch_instances(workload: &str, small: bool) -> Vec<Instance> {
    match workload {
        "fuse-em" => {
            let kinds: Vec<DatasetKind> = if small {
                vec![DatasetKind::Stocks, DatasetKind::Demonstrations]
            } else {
                DatasetKind::all().to_vec()
            };
            kinds
                .iter()
                .map(|kind| Instance::from_generated(&kind.generate(TABLE1_SEED)))
                .collect()
        }
        "fuse-erm" => {
            let (num_sources, shards) = if small { (100, 2) } else { (1_000, 100) };
            let config = SyntheticConfig {
                name: "erm".to_string(),
                num_sources,
                num_objects: 1_000,
                domain_size: 2,
                pattern: ObservationPattern::PerObjectExact(3),
                accuracy: AccuracyModel {
                    mean: 0.7,
                    spread: 0.15,
                },
                features: FeatureModel::default(),
                copying: None,
                seed: ERM_SEED,
            };
            vec![Instance::sharded_synthetic(&config, shards, ERM_SEED, 0.3)]
        }
        other => panic!("not a batch workload: {other}"),
    }
}

/// The decision Algorithm 2 must take on a batch workload.
fn expected_decision(workload: &str) -> OptimizerDecision {
    if workload == "fuse-em" {
        OptimizerDecision::Em
    } else {
        OptimizerDecision::Erm
    }
}

/// Runs a batch workload for `seconds`.
pub fn run_batch(
    workload: &str,
    instances: &[Instance],
    query_batches: usize,
    seed: u64,
    seconds: f64,
    run: &mut Run,
) -> Result<(), DataError> {
    let estimator = SlimFast::new(fit_config());
    let expected = expected_decision(workload);
    time_setups(&mut run.setup_s, || {
        instances
            .iter()
            .map(|inst| {
                let dataset = read_observations_csv(inst.claims_csv.as_slice())?;
                let labels = read_ground_truth_csv(&dataset, inst.labels_csv.as_slice())?;
                let features = read_features_csv(&dataset, inst.features_csv.as_slice())?;
                Ok((dataset, labels, features))
            })
            .collect::<Result<Vec<_>, DataError>>()
    })?;
    let dir = run.snapshot_dir(workload)?;
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    while run.rounds == 0 || start.elapsed() < budget {
        let round = run.rounds as u64;
        let round_start = Instant::now();
        let mut fused = Vec::with_capacity(instances.len());
        let mut parse_s = 0.0;
        run.tracer
            .span("bench.round", |tr| -> Result<(), DataError> {
                for inst in instances {
                    let (f, p) = fuse_instance(inst, &estimator, tr)?;
                    parse_s += p;
                    fused.push(f);
                }
                Ok(())
            })?;
        run.fuse_s.push(round_start.elapsed().as_secs_f64());
        run.ingest_s += parse_s;
        run.ingest_claims += instances.iter().map(|i| i.claims.len() as f64).sum::<f64>();

        let mut accuracy = 0.0;
        let mut mae = 0.0;
        for (i, (inst, f)) in instances.iter().zip(fused).enumerate() {
            let (score, source_mae) = check_fit(inst, &f);
            accuracy += score.fused_accuracy;
            mae += source_mae.unwrap_or(f64::NAN);
            let ok = score.passes() && source_mae.is_some() && f.fit.decision == expected;
            run.op(ok, || {
                format!(
                    "{}: fused accuracy {:.3} against a vote of {:.3}, decision {:?}",
                    inst.name, score.fused_accuracy, score.vote_accuracy, f.fit.decision
                )
            });
            if let Some(problem) = &f.fit.problem {
                sample_storage(&f.dataset, &mut run.tracer);
                em_phase_probes(
                    problem,
                    f.fit.model.weights(),
                    estimator.config(),
                    &mut run.tracer,
                );
            }
            serve_fused(
                f,
                &estimator,
                query_batches,
                seed,
                round * 16 + i as u64,
                &dir,
                run,
            );
        }
        let n = instances.len() as f64;
        run.fused_accuracy.push(accuracy / n);
        run.source_acc_mae.push(mae / n);
        run.end_round();
    }
    Ok(())
}

/// Serves one fused batch result: publish, query batches, checkpoints and recovers.
fn serve_fused(
    f: Fused,
    estimator: &SlimFast,
    query_batches: usize,
    seed: u64,
    position: u64,
    dir: &SnapshotDir,
    run: &mut Run,
) {
    let Fused {
        dataset,
        features,
        labels,
        fit,
        fit_s,
    } = f;
    let num_objects = dataset.num_objects();
    // `ServingEngine::new` publishes the fitted model: refit_s is the fit plus this.
    let publish_start = Instant::now();
    let engine = FusionEngine::from_model(
        estimator.clone(),
        fit.model,
        fit.decision,
        dataset,
        features,
        labels,
        RefitPolicy::Never,
    );
    let mut serving = ServingEngine::new(engine);
    run.refit_s
        .push(fit_s + publish_start.elapsed().as_secs_f64());
    run.tracer
        .span("core.serve.publish", |_| serving.publish_now());
    if run.tracer.enabled() {
        let stats = serving.stats();
        run.tracer
            .sample("core.serve.snapshot_swaps", stats.snapshot_swaps as f64);
        run.tracer
            .sample("core.serve.refits_installed", stats.refits_installed as f64);
        run.tracer
            .sample("core.serve.refit_failures", stats.refit_failures as f64);
        run.tracer.sample(
            "core.engine.evictions",
            serving.engine().eviction_count() as f64,
        );
    }
    let mut reader = serving.reader();
    let mut check_ids = Vec::new();
    for b in 0..query_batches {
        let ids = query_ids(seed, position * 1024 + b as u64, num_objects, QUERY_BATCH);
        run.query(&mut reader, &ids);
        if run.tracer.enabled() {
            run.tracer
                .sample("core.serve.staleness_claims", reader.staleness() as f64);
        }
        if b == 0 {
            check_ids = ids;
        }
    }
    let expected = reader.posteriors(&check_ids);
    run.checkpoint_and_recover(
        &serving,
        dir,
        (BATCH_CHECKPOINTS, BATCH_RECOVERS),
        estimator,
        RefitPolicy::Never,
        &check_ids,
        &expected,
    );
}

/// Runs `phases` phases of the serving workload. The engine's data grows with every
/// object streamed, so a run is a fixed number of phases rather than a time: every
/// run then measures the same states.
pub fn run_stream(
    stream: &Stream,
    sizes: &StreamSizes,
    phases: usize,
    run: &mut Run,
) -> Result<(), DataError> {
    let config = fit_config();
    // Background refits run EM (warm-started from ERM on the labels), the learner the
    // serving tier keeps on the second core.
    let estimator = SlimFast::em(config);
    let policy = RefitPolicy::EveryNClaims(sizes.refit_every);
    let window = WindowConfig::new(sizes.horizon_claims).with_eviction_batch(sizes.eviction_batch);
    let live = sizes.live_objects();
    let initial = stream.instance(0..live);

    let tracer = &mut run.tracer;
    let mut serving = time_setups(&mut run.setup_s, || {
        tracer.span("bench.setup", |tr| -> Result<_, DataError> {
            let parse = Instant::now();
            let dataset = tr.span("data.io.read_csv", |_| {
                read_observations_csv(initial.claims_csv.as_slice())
            })?;
            tr.sample(
                "data.io.read_csv_claims_per_s",
                initial.claims.len() as f64 / parse.elapsed().as_secs_f64(),
            );
            let (labels, features) = tr.span("data.io.read_aux_csv", |_| {
                Ok::<_, DataError>((
                    read_ground_truth_csv(&dataset, initial.labels_csv.as_slice())?,
                    read_features_csv(&dataset, initial.features_csv.as_slice())?,
                ))
            })?;
            let engine = tr.span("core.engine.fit", |_| {
                FusionEngine::fit(estimator.clone(), dataset, features, labels, policy)
                    .with_window(window)
            });
            let serving = ServingEngine::new(engine);
            serving.reader().posteriors(&[ObjectId::new(0)]);
            Ok(serving)
        })
    })?;
    // Names are interned in order of arrival, so object `j` is handle `j`.
    for j in [0, live / 2, live - 1] {
        let name = stream.object_name(j);
        if serving.snapshot().dataset().object_id(&name) != Some(ObjectId::new(j)) {
            return Err(DataError::Invalid(format!("{name} is not handle {j}")));
        }
    }
    let mut reader = serving.reader();
    let dir = run.snapshot_dir("serve-stream")?;
    let mut next = live;
    let mut installed = serving.stats().refits_installed;
    let mut in_flight_since: Option<Instant> = None;
    // Objects the published snapshot may not hold yet: the publish cadence plus the
    // step just ingested. Older than `recent_span` past that, objects are queried as
    // "older" ones, down to those the window's eviction batch may have begun to age out.
    let lag = ServingEngine::DEFAULT_PUBLISH_EVERY / sizes.shape.claims_per_object
        + sizes.objects_per_step;
    let recent_span = live / 4;
    let evicting = sizes.eviction_batch / sizes.shape.claims_per_object + 1;
    for phase in 0..phases as u64 {
        let round_span = run.tracer.begin("bench.round");
        for step in 0..sizes.steps_per_phase {
            let mut claims =
                Vec::with_capacity(sizes.objects_per_step * sizes.shape.claims_per_object);
            let mut labels = Vec::new();
            for j in next..next + sizes.objects_per_step {
                let object = stream.object(j);
                let name = stream.object_name(j);
                for &(s, v) in &object.claims {
                    claims.push(NamedObservation::new(
                        stream.sources[s as usize].clone(),
                        name.clone(),
                        stream.values[v as usize].clone(),
                    ));
                }
                if object.labeled {
                    labels.push((name, stream.values[object.truth as usize].clone()));
                }
            }
            next += sizes.objects_per_step;
            // If a refit falls due within this ingest, let the one in flight finish first,
            // so that every refit is dispatched at the same claim and covers the same
            // claims in every run, however fast the machine trains.
            if serving.engine().claims_since_fit() + claims.len() >= sizes.refit_every {
                wait_for_refit(&mut serving);
                track_refit(
                    &serving,
                    &mut installed,
                    &mut in_flight_since,
                    &mut run.refit_s,
                );
            }
            let t = thread_cpu_s();
            let appended = serving.ingest(&claims);
            run.ingest_s += thread_cpu_s() - t;
            let ok = appended.as_ref().is_ok_and(|&n| n == claims.len());
            run.ingest_claims += claims.len() as f64;
            for (object, value) in &labels {
                serving.label(object, value);
            }
            run.op(ok, || {
                format!("ingest appended {appended:?} of {} claims", claims.len())
            });
            track_refit(
                &serving,
                &mut installed,
                &mut in_flight_since,
                &mut run.refit_s,
            );

            // Half the batch from recent published objects, half from older live ones.
            let recent = (next - lag - recent_span)..(next - lag);
            let older = (next - live + evicting)..(next - lag - recent_span);
            for b in 0..sizes.query_batches_per_step {
                let position = (phase * 1_000_000) + (step * 16 + b) as u64;
                let mut rng = seeded(stream.seed ^ 0x0051_E5E5, position);
                let ids: Vec<ObjectId> = (0..QUERY_BATCH)
                    .map(|i| {
                        let range = if i % 2 == 0 { &recent } else { &older };
                        ObjectId::new(rng.gen_range(range.clone()))
                    })
                    .collect();
                run.query(&mut reader, &ids);
                if run.tracer.enabled() {
                    run.tracer
                        .sample("core.serve.staleness_claims", reader.staleness() as f64);
                }
            }
        }
        // Drain: a refit still in flight is installed here, and counts from its dispatch.
        serving.drain();
        track_refit(
            &serving,
            &mut installed,
            &mut in_flight_since,
            &mut run.refit_s,
        );
        phase_end(
            stream,
            sizes,
            &estimator,
            policy,
            next,
            &dir,
            &mut serving,
            run,
        )?;
        run.tracer.end(round_span);
        installed = serving.stats().refits_installed;
        in_flight_since = None;
        run.end_round();
    }
    serving.drain();
    Ok(())
}

/// Blocks until the background refit in flight, if any, is resolved. Polling installs
/// it as the next `ingest` would, and publishes nothing else.
fn wait_for_refit(serving: &mut ServingEngine) {
    while serving.refit_in_flight() {
        if !serving.poll_refit() {
            std::thread::sleep(Duration::from_micros(500));
        }
    }
}

/// Records the dispatch-to-install time of background refits, seen from the client.
fn track_refit(
    serving: &ServingEngine,
    installed: &mut usize,
    in_flight_since: &mut Option<Instant>,
    refit_s: &mut PerRound,
) {
    let now_installed = serving.stats().refits_installed;
    if now_installed > *installed {
        if let Some(since) = in_flight_since.take() {
            refit_s.push(since.elapsed().as_secs_f64());
        }
        *installed = now_installed;
    }
    if serving.refit_in_flight() && in_flight_since.is_none() {
        *in_flight_since = Some(Instant::now());
    }
}

/// Phase-end refit, quality check, checkpoint and recovers, after the drain.
#[allow(clippy::too_many_arguments)]
fn phase_end(
    stream: &Stream,
    sizes: &StreamSizes,
    estimator: &SlimFast,
    policy: RefitPolicy,
    next: usize,
    dir: &SnapshotDir,
    serving: &mut ServingEngine,
    run: &mut Run,
) -> Result<(), DataError> {
    let start = Instant::now();
    run.tracer
        .span("core.serve.refit_now", |_| serving.refit_now());
    run.fuse_s.push(start.elapsed().as_secs_f64());
    run.tracer
        .span("core.serve.publish", |_| serving.publish_now());

    let snapshot = serving.snapshot();
    let dataset = snapshot.dataset();
    // Objects whose claims are surely all live, minus the labeled ones.
    let base = next - sizes.live_objects() * 3 / 4;
    let objects: Vec<_> = (base..next).map(|j| stream.object(j)).collect();
    let eval: Vec<u32> = (0..objects.len() as u32)
        .filter(|&i| !objects[i as usize].labeled)
        .collect();
    let truth: Vec<u32> = objects.iter().map(|o| o.truth).collect();
    let claims: Vec<_> = objects
        .iter()
        .enumerate()
        .flat_map(|(i, o)| o.claims.iter().map(move |&(s, v)| (s, i as u32, v)))
        .collect();
    let vote = check::plurality_vote(objects.len(), &claims);
    let assignment = snapshot.predict();
    let score = FitCheck::score(&eval, &truth, &vote, |i| {
        let o = ObjectId::new(base + i as usize);
        assignment
            .get(o)
            .and_then(|v| dataset.value_name(v))
            .and_then(|name| stream.values.iter().position(|x| x == name))
            .map(|v| v as u32)
    });
    let engine = serving.engine();
    let accuracies = engine.source_accuracies();
    let estimated = engine.dataset().source_ids().filter_map(|s| {
        engine
            .dataset()
            .source_name(s)
            .map(|name| (name, accuracies.get(s)))
    });
    let mae = check::source_accuracy_mae(estimated, &stream.true_accuracy());
    run.fused_accuracy.push(score.fused_accuracy);
    run.source_acc_mae.push(mae.unwrap_or(f64::NAN));
    run.op(score.passes() && mae.is_some(), || {
        format!(
            "phase end: fused accuracy {:.3} against a vote of {:.3}",
            score.fused_accuracy, score.vote_accuracy
        )
    });

    if run.tracer.enabled() {
        let stats = serving.stats();
        run.sample_delta("core.serve.snapshot_swaps", stats.snapshot_swaps as f64);
        run.sample_delta("core.serve.refits_installed", stats.refits_installed as f64);
        run.sample_delta("core.serve.refit_failures", stats.refit_failures as f64);
        run.sample_delta("core.engine.evictions", engine.eviction_count() as f64);
        let storage = engine.dataset().storage_stats();
        run.sample_delta("data.dataset.compactions", storage.compactions as f64);
        let tr = &mut run.tracer;
        tr.sample(
            "data.dataset.bytes_per_claim",
            storage.total_bytes() as f64 / storage.live_claims.max(1) as f64,
        );
        // The phase-end refit runs inside the engine; refit the same window through
        // the public layer calls to take its per-layer times.
        let dataset = engine.dataset().clone();
        let features = engine.features().clone();
        let mut labels = GroundTruth::empty(dataset.num_objects());
        for j in next - sizes.live_objects()..next {
            let object = stream.object(j);
            let o = dataset.object_id(&stream.object_name(j));
            let v = dataset.value_id(&stream.values[object.truth as usize]);
            if let (true, Some(o), Some(v)) = (object.labeled, o, v) {
                labels.set(o, v);
            }
        }
        layer_probe(&dataset, &features, &labels, estimator, tr);
    }

    let ids: Vec<ObjectId> = (0..QUERY_BATCH)
        .map(|i| ObjectId::new(base + i * (next - base) / QUERY_BATCH))
        .collect();
    let expected = serving.reader().posteriors(&ids);
    run.checkpoint_and_recover(
        serving,
        dir,
        (sizes.checkpoints_per_phase, sizes.recovers_per_phase),
        estimator,
        policy,
        &ids,
        &expected,
    );
    Ok(())
}

/// Fits an instance through the public layer calls in spans, then probes the E-step
/// and M-step on it.
fn layer_probe(
    dataset: &Dataset,
    features: &FeatureMatrix,
    labels: &GroundTruth,
    estimator: &SlimFast,
    tr: &mut Tracer,
) {
    let fit = fit_layers(dataset, features, labels, estimator, tr);
    if let Some(problem) = &fit.problem {
        em_phase_probes(problem, fit.model.weights(), estimator.config(), tr);
    }
}

/// Throughput of the three SoA kernels on fixed inputs, in Melem/s (traced run).
pub fn kernel_probes(tr: &mut Tracer) {
    const N: usize = 1 << 20;
    const REPEATS: usize = 8;
    let base: Vec<f64> = (0..N).map(|i| ((i % 997) as f64 - 498.0) / 97.0).collect();
    let offsets: Vec<u32> = (0..=N as u32).step_by(4).collect();
    let params: Vec<u32> = (0..N as u32).map(|i| (i * 7) % 4096).collect();
    let weights: Vec<f64> = (0..4096).map(|i| (i as f64 - 2048.0) / 4096.0).collect();
    let mut buffer = base.clone();
    let mut rate = |name: &'static str, f: &mut dyn FnMut(&mut Vec<f64>)| {
        let mut samples = Vec::with_capacity(REPEATS);
        for _ in 0..REPEATS {
            buffer.copy_from_slice(&base);
            let start = Instant::now();
            f(&mut buffer);
            samples.push(N as f64 / start.elapsed().as_secs_f64() / 1e6);
        }
        tr.sample(name, median(&samples));
    };
    rate("optim.kernels.sigmoid_slice_melem_per_s", &mut |b| {
        kernels::sigmoid_slice(std::hint::black_box(b))
    });
    rate("optim.kernels.softmax_rows_melem_per_s", &mut |b| {
        kernels::softmax_rows(std::hint::black_box(b), &offsets)
    });
    rate("optim.kernels.dot_csr_melem_per_s", &mut |b| {
        std::hint::black_box(kernels::dot_csr(&params, b, &weights));
    });
    tr.sample("trace.span_overhead_ns", span_overhead_ns(100_000));
}

/// The run's scratch directory for snapshot generations and the trace file.
pub fn scratch_dir(root: &Path, workload: &str) -> PathBuf {
    root.join(format!("{workload}-{}", std::process::id()))
}
