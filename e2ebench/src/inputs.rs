//! Benchmark inputs: generated instances kept as name tables plus the CSV bytes the
//! program parses, and the seeded claim stream of the serving workload.
//!
//! Everything the correctness checks need (truth, true source accuracies, the
//! plurality vote) is held here by name, apart from anything the program computes.

use std::collections::HashMap;
use std::fmt::Write as _;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use slimfast_data::{FeatureMatrix, ObjectId, SourceId};
use slimfast_datagen::{generate_claims, ClaimsSpec, SyntheticConfig, SyntheticInstance};

use crate::check::{plurality_vote, Claim};

/// A generator keyed by a seed and a position, so any draw can be made again alone.
pub fn seeded(seed: u64, position: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ position.wrapping_mul(0xD6E8_FEB8_6659_FD93))
}

/// One batch fusion instance, as the benchmark holds it.
#[derive(Debug, Clone)]
pub struct Instance {
    pub name: String,
    pub sources: Vec<String>,
    pub objects: Vec<String>,
    pub values: Vec<String>,
    pub claims: Vec<Claim>,
    /// True value of every object.
    pub truth: Vec<u32>,
    pub labeled: Vec<bool>,
    /// The generator's accuracy of every source, by source name.
    pub true_accuracy: HashMap<String, f64>,
    pub vote: Vec<Option<u32>>,
    /// Unlabeled objects: the ones fused accuracy is measured on.
    pub eval_objects: Vec<u32>,
    pub claims_csv: Vec<u8>,
    pub labels_csv: Vec<u8>,
    pub features_csv: Vec<u8>,
    object_index: HashMap<String, u32>,
    value_index: HashMap<String, u32>,
}

impl Instance {
    /// Takes a generated instance apart into name tables and writes its claims and its
    /// source features as CSV, with no labels.
    pub fn from_generated(generated: &SyntheticInstance) -> Self {
        let dataset = &generated.dataset;
        let name_or = |name: Option<&str>, fallback: String| name.map_or(fallback, str::to_owned);
        let sources: Vec<String> = dataset
            .source_ids()
            .map(|s| name_or(dataset.source_name(s), s.to_string()))
            .collect();
        let objects: Vec<String> = dataset
            .object_ids()
            .map(|o| name_or(dataset.object_name(o), o.to_string()))
            .collect();
        let num_values = dataset
            .object_ids()
            .flat_map(|o| dataset.domain(o).iter().map(|v| v.index() + 1))
            .chain(generated.truth.labeled().map(|(_, v)| v.index() + 1))
            .max()
            .unwrap_or(0);
        let values: Vec<String> = (0..num_values)
            .map(|v| {
                let id = slimfast_data::ValueId::new(v);
                name_or(dataset.value_name(id), id.to_string())
            })
            .collect();
        let mut claims = Vec::with_capacity(dataset.num_observations());
        for o in dataset.object_ids() {
            for &(s, v) in dataset.observations_for_object(o) {
                claims.push((s.index() as u32, o.index() as u32, v.index() as u32));
            }
        }
        let truth: Vec<u32> = (0..objects.len())
            .map(|o| {
                generated
                    .truth
                    .get(ObjectId::new(o))
                    .expect("generated instances label every object")
                    .index() as u32
            })
            .collect();
        let true_accuracy = sources
            .iter()
            .cloned()
            .zip(generated.true_accuracies.iter().copied())
            .collect();
        let features_csv = features_csv(&generated.features, &sources, &claims);
        let labeled = vec![false; objects.len()];
        Self::assemble(
            generated.name.clone(),
            sources,
            objects,
            values,
            claims,
            truth,
            labeled,
            true_accuracy,
            features_csv,
        )
    }

    /// A large synthetic instance laid out by the generator in shards: one
    /// [`SyntheticConfig`] draws the sources' features and true accuracies, and
    /// [`generate_claims`] lays `shards` independent blocks of `config.num_objects`
    /// objects over those same sources, drawn from `claims_seed`. Sharding keeps
    /// generation linear in the instance size.
    pub fn sharded_synthetic(
        config: &SyntheticConfig,
        shards: usize,
        claims_seed: u64,
        label_share: f64,
    ) -> Self {
        let base = SyntheticConfig {
            num_objects: 1,
            ..config.clone()
        }
        .generate();
        let mut claims = Vec::new();
        let mut truth = Vec::new();
        for shard in 0..shards {
            let spec = ClaimsSpec {
                name: &config.name,
                num_objects: config.num_objects,
                domain_size: config.domain_size,
                pattern: config.pattern,
                true_accuracies: &base.true_accuracies,
                copying: config.copying,
            };
            let mut rng = StdRng::seed_from_u64(claims_seed ^ (shard as u64 + 1) << 32);
            let (dataset, shard_truth, _) = generate_claims(&spec, &mut rng);
            let offset = truth.len() as u32;
            for o in dataset.object_ids() {
                for &(s, v) in dataset.observations_for_object(o) {
                    claims.push((
                        s.index() as u32,
                        offset + o.index() as u32,
                        v.index() as u32,
                    ));
                }
                let t = shard_truth
                    .get(o)
                    .expect("generated instances label every object");
                truth.push(t.index() as u32);
            }
        }
        let sources: Vec<String> = (0..config.num_sources)
            .map(|s| format!("{}-src-{s}", config.name))
            .collect();
        let objects: Vec<String> = (0..truth.len())
            .map(|o| format!("{}-obj-{o}", config.name))
            .collect();
        let values: Vec<String> = (0..config.domain_size).map(|v| format!("v{v}")).collect();
        let true_accuracy = sources
            .iter()
            .cloned()
            .zip(base.true_accuracies.iter().copied())
            .collect();
        let features_csv = features_csv(&base.features, &sources, &claims);
        let mut rng = seeded(claims_seed, u64::MAX);
        let labeled = (0..objects.len())
            .map(|_| rng.gen_bool(label_share))
            .collect();
        Self::assemble(
            config.name.clone(),
            sources,
            objects,
            values,
            claims,
            truth,
            labeled,
            true_accuracy,
            features_csv,
        )
    }

    #[allow(clippy::too_many_arguments)]
    pub fn assemble(
        name: String,
        sources: Vec<String>,
        objects: Vec<String>,
        values: Vec<String>,
        claims: Vec<Claim>,
        truth: Vec<u32>,
        labeled: Vec<bool>,
        true_accuracy: HashMap<String, f64>,
        features_csv: Vec<u8>,
    ) -> Self {
        let mut claims_csv = String::from("# source,object,value\n");
        for &(s, o, v) in &claims {
            let _ = writeln!(
                claims_csv,
                "{},{},{}",
                sources[s as usize], objects[o as usize], values[v as usize]
            );
        }
        let mut labels_csv = String::from("# object,value\n");
        for (o, object) in objects.iter().enumerate() {
            if labeled[o] {
                let _ = writeln!(labels_csv, "{object},{}", values[truth[o] as usize]);
            }
        }
        let vote = plurality_vote(objects.len(), &claims);
        let eval_objects = (0..objects.len() as u32)
            .filter(|&o| !labeled[o as usize])
            .collect();
        let object_index = objects.iter().cloned().zip(0u32..).collect();
        let value_index = values.iter().cloned().zip(0u32..).collect();
        Self {
            name,
            sources,
            objects,
            values,
            claims,
            truth,
            labeled,
            true_accuracy,
            vote,
            eval_objects,
            claims_csv: claims_csv.into_bytes(),
            labels_csv: labels_csv.into_bytes(),
            features_csv,
            object_index,
            value_index,
        }
    }

    pub fn object_index(&self, name: &str) -> Option<u32> {
        self.object_index.get(name).copied()
    }

    pub fn value_index(&self, name: &str) -> Option<u32> {
        self.value_index.get(name).copied()
    }

    pub fn num_labeled(&self) -> usize {
        self.labeled.iter().filter(|&&l| l).count()
    }
}

/// Source features as `source,feature,value` CSV. Sources that make no claim are
/// left out: the parsed dataset does not know them.
fn features_csv(features: &FeatureMatrix, sources: &[String], claims: &[Claim]) -> Vec<u8> {
    let mut claiming = vec![false; sources.len()];
    for &(s, _, _) in claims {
        claiming[s as usize] = true;
    }
    let mut out = String::from("# source,feature,value\n");
    for (s, source) in sources.iter().enumerate().filter(|&(s, _)| claiming[s]) {
        for &(k, value) in features.features_of(SourceId::new(s)) {
            let feature = features
                .feature_name(k)
                .map_or_else(|| k.to_string(), str::to_owned);
            let _ = writeln!(out, "{source},{feature},{value}");
        }
    }
    out.into_bytes()
}

/// Shape of the serving workload's stream.
#[derive(Debug, Clone)]
pub struct StreamShape {
    pub sources: usize,
    pub accuracy_mean: f64,
    pub accuracy_spread: f64,
    pub domain_size: usize,
    pub claims_per_object: usize,
    pub label_share: f64,
}

/// Seed of the stream's source population: the sources' accuracies and features are
/// the same for every stream seed.
const POPULATION_SEED: u64 = 0x5EED_50C5;

/// The serving workload's stationary claim stream. Object `j` has a name of its own,
/// and its true value, label flag and claims are a pure function of the seed and `j`,
/// so any phase can be regenerated exactly.
#[derive(Debug, Clone)]
pub struct Stream {
    pub seed: u64,
    pub shape: StreamShape,
    pub sources: Vec<String>,
    pub accuracies: Vec<f64>,
    pub values: Vec<String>,
}

/// One streamed object: its true value, whether it arrives labeled, and its claims as
/// `(source, value)` indices.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamObject {
    pub truth: u32,
    pub labeled: bool,
    pub claims: Vec<(u32, u32)>,
}

impl Stream {
    /// A stream whose sources' accuracies are drawn uniformly from `accuracy_mean ±
    /// accuracy_spread`.
    pub fn new(seed: u64, shape: StreamShape) -> Self {
        let mut rng = seeded(POPULATION_SEED, u64::MAX);
        let accuracies = (0..shape.sources)
            .map(|_| {
                let u = rng.gen_range(-1.0..1.0);
                (shape.accuracy_mean + shape.accuracy_spread * u).clamp(0.02, 0.98)
            })
            .collect();
        Self {
            seed,
            sources: (0..shape.sources).map(|s| format!("src-{s}")).collect(),
            accuracies,
            values: (0..shape.domain_size).map(|v| format!("v{v}")).collect(),
            shape,
        }
    }

    /// The name of object `j`.
    pub fn object_name(&self, j: usize) -> String {
        format!("obj-{j}")
    }

    /// The source features written to the features CSV: four binary traits per source.
    pub fn features_csv(&self) -> Vec<u8> {
        let mut out = String::from("# source,feature,value\n");
        for (s, source) in self.sources.iter().enumerate() {
            let mut rng = seeded(POPULATION_SEED ^ 0xFEA7, s as u64);
            for k in 0..4 {
                if rng.gen_bool(0.5) {
                    let _ = writeln!(out, "{source},trait{k},1");
                }
            }
        }
        out.into_bytes()
    }

    pub fn true_accuracy(&self) -> HashMap<String, f64> {
        self.sources
            .iter()
            .cloned()
            .zip(self.accuracies.iter().copied())
            .collect()
    }

    pub fn object(&self, j: usize) -> StreamObject {
        let mut rng = seeded(self.seed, j as u64);
        let domain = self.values.len();
        let truth = rng.gen_range(0..domain) as u32;
        let labeled = rng.gen_bool(self.shape.label_share);
        let wanted = self.shape.claims_per_object.min(self.sources.len());
        let mut claims: Vec<(u32, u32)> = Vec::with_capacity(wanted);
        while claims.len() < wanted {
            let s = rng.gen_range(0..self.sources.len()) as u32;
            if claims.iter().any(|&(t, _)| t == s) {
                continue;
            }
            let value = if rng.gen_bool(self.accuracies[s as usize]) {
                truth
            } else {
                let wrong = rng.gen_range(0..domain - 1) as u32;
                wrong + u32::from(wrong >= truth)
            };
            claims.push((s, value));
        }
        StreamObject {
            truth,
            labeled,
            claims,
        }
    }

    /// Objects `range` as a batch instance (claims, labels and features as CSV), the
    /// form the serving workload's initial fit is loaded from.
    pub fn instance(&self, range: std::ops::Range<usize>) -> Instance {
        let start = range.start;
        let objects: Vec<String> = range.clone().map(|j| self.object_name(j)).collect();
        let mut claims = Vec::new();
        let mut truth = Vec::new();
        let mut labeled = Vec::new();
        for j in range {
            let object = self.object(j);
            let o = (j - start) as u32;
            claims.extend(object.claims.iter().map(|&(s, v)| (s, o, v)));
            truth.push(object.truth);
            labeled.push(object.labeled);
        }
        Instance::assemble(
            "stream".to_string(),
            self.sources.clone(),
            objects,
            self.values.clone(),
            claims,
            truth,
            labeled,
            self.true_accuracy(),
            self.features_csv(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_objects_are_pure_functions_of_seed_and_position() {
        let a = Stream::new(3, shape(50, 3));
        let b = Stream::new(3, shape(50, 3));
        assert_eq!(a.object(17), b.object(17));
        assert_ne!(a.object(17), Stream::new(4, shape(50, 3)).object(17));
        let o = a.object(5);
        assert_eq!(o.claims.len(), 5);
        assert!(o.claims.iter().all(|&(s, v)| (s as usize) < 50 && v < 3));
        assert_ne!(a.object_name(105), a.object_name(5));
    }

    fn shape(sources: usize, domain_size: usize) -> StreamShape {
        StreamShape {
            sources,
            accuracy_mean: 0.75,
            accuracy_spread: 0.1,
            domain_size,
            claims_per_object: 5,
            label_share: 0.3,
        }
    }

    #[test]
    fn instance_csv_round_trips_through_the_parser() {
        let stream = Stream::new(9, shape(30, 2));
        let inst = stream.instance(0..40);
        let dataset = slimfast_data::read_observations_csv(inst.claims_csv.as_slice()).unwrap();
        assert_eq!(dataset.num_observations(), inst.claims.len());
        let labels =
            slimfast_data::read_ground_truth_csv(&dataset, inst.labels_csv.as_slice()).unwrap();
        assert_eq!(labels.num_labeled(), inst.num_labeled());
        let features =
            slimfast_data::read_features_csv(&dataset, inst.features_csv.as_slice()).unwrap();
        assert_eq!(features.num_sources(), dataset.num_sources());
    }
}
