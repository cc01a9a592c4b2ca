//! The traced run's per-layer timings: the same inputs as the end-to-end run,
//! fed straight to each crate's public functions, timed from the benchmark.

use crate::spec::{Spec, BATCH_BAND, BATCH_OFFSETS, CACHED_PHIS};
use crate::stats::{median, ms};
use crate::wire::Seeds;
use qjoin_core::encoded::{
    approximate_sum_quantile_batch_encoded_traced, exact_quantile_batch_encoded_traced,
};
use qjoin_core::sampling::{quantile_by_sampling_batch_encoded, SamplingOptions};
use qjoin_core::{PhaseContext, PivotingOptions, SolvePhase, SolveTracer};
use qjoin_data::{Database, EncodedDatabase};
use qjoin_engine::{Engine, EngineConfig, PreparedPlan};
use qjoin_exec::encoded::{for_each_answer_codes, EncodedContext};
use qjoin_query::EncodedInstance;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Phase times and counts of one solve, as reported to [`SolveTracer`].
#[derive(Default)]
struct Phases {
    ms: BTreeMap<&'static str, f64>,
    rounds: u64,
    leaf_answers: u64,
    /// Candidates at each trim round, then the leaf's answer count.
    candidates: Vec<u64>,
}

#[derive(Default)]
struct Recorder(RefCell<Phases>);

impl SolveTracer for Recorder {
    fn phase_event(&self, phase: SolvePhase, elapsed: Duration, ctx: &PhaseContext) {
        let mut p = self.0.borrow_mut();
        let name = match phase {
            SolvePhase::Prepare => "prepare",
            SolvePhase::PivotScan => "pivot",
            SolvePhase::TrimRound => "trim",
            SolvePhase::Materialize => "leaf",
        };
        *p.ms.entry(name).or_default() += ms(elapsed);
        match phase {
            SolvePhase::TrimRound => {
                p.rounds += 1;
                p.candidates.push(ctx.candidates.unwrap_or(0));
            }
            SolvePhase::Materialize => {
                let m = ctx.materialized.unwrap_or(0);
                p.leaf_answers += m;
                p.candidates.push(m);
            }
            _ => {}
        }
    }
}

impl Phases {
    fn get(&self, name: &str) -> f64 {
        self.ms.get(name).copied().unwrap_or(0.0)
    }

    fn total(&self) -> f64 {
        self.ms.values().sum()
    }

    /// `(Σ answers kept, Σ candidates)` over the trim rounds: round r keeps what
    /// round r + 1 (or the leaf) starts from.
    fn kept(&self) -> (u64, u64) {
        let c = &self.candidates;
        let rounds = c.len().saturating_sub(1);
        let kept = c.iter().skip(1).take(rounds).sum();
        let base = c.iter().take(rounds).sum();
        (kept, base)
    }
}

/// Per-layer samples, one per repetition.
#[derive(Default)]
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    fn push(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// The median of a layer's samples (0 when it has none).
    pub fn get(&self, name: &str) -> f64 {
        self.samples
            .get(name)
            .and_then(|s| median(s))
            .unwrap_or(0.0)
    }

    /// The sum of a layer's samples.
    pub fn sum(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |s| s.iter().sum())
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = black_box(f());
    (out, ms(started.elapsed()))
}

/// Times every layer on the workload's inputs, repeating until `seconds` have
/// passed (at least three repetitions).
pub fn run(spec: &Spec, seeds: Seeds, seconds: f64) -> Result<Layers, String> {
    let pool = qjoin_par::Pool::new(spec.threads);
    qjoin_par::with_pool(&pool, || measure(spec, seeds, seconds))
}

fn measure(spec: &Spec, seeds: Seeds, seconds: f64) -> Result<Layers, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let instance = spec.main.generate(seeds.main);
    let database: Arc<Database> = Arc::clone(instance.shared_database());
    let encoded = Arc::new(EncodedDatabase::encode(&database).map_err(|e| err(&e))?);
    let query = instance.query().clone();
    let enc_instance =
        EncodedInstance::from_encoded_database(query.clone(), &encoded).map_err(|e| err(&e))?;
    let approx_ranking = spec.approx_plan.1.ranking(&instance);
    let options = PivotingOptions::default();

    // An engine of its own for replace and cache-hit timings, set up like the
    // server's: the probe plan on the main database, one plan on the replaced one.
    let engine = Engine::with_config(EngineConfig {
        cache_capacity: spec.cache_capacity,
        cache_shards: spec.cache_shards,
        threads: Some(spec.threads),
        ..EngineConfig::default()
    });
    engine
        .create_database("m", Arc::clone(&database))
        .map_err(|e| err(&e))?;
    let (probe, probe_rank) = spec.exact_plans[0];
    engine
        .register(probe, "m", query.clone(), probe_rank.ranking(&instance))
        .map_err(|e| err(&e))?;
    for phi in CACHED_PHIS {
        engine.quantile(probe, phi).map_err(|e| err(&e))?;
    }
    let replaced = spec.replaced.generate(seeds.replaced[0]);
    let (rname, rrank) = spec.replaced_plan;
    let rranking = rrank.ranking(&replaced);
    let (rquery, rdb) = replaced.into_parts();
    engine.create_database("r", rdb).map_err(|e| err(&e))?;
    engine
        .register(rname, "r", rquery, rranking)
        .map_err(|e| err(&e))?;

    let mut out = Layers::default();
    let mut phis = crate::wire::PhiSource::new(seeds.phis ^ 0x5a5a);
    let started = Instant::now();
    let mut rep = 0usize;
    while rep < 3 || started.elapsed().as_secs_f64() < seconds {
        let (_, t) = timed(|| spec.main.generate(seeds.main));
        out.push("workload.generate_ms", t);
        let (_, t) = timed(|| EncodedDatabase::encode(&database));
        out.push("data.encode_ms", t);
        let (_, t) = timed(|| qjoin_exec::count::count_answers(&instance));
        out.push("exec.row_count_ms", t);
        let (ctx, t) = timed(|| EncodedContext::build(&enc_instance));
        out.push("exec.context_ms", t);
        let ctx = ctx.map_err(|e| err(&e))?;
        let (_, t) = timed(|| {
            let mut n = 0usize;
            for_each_answer_codes(&ctx, |codes| n += codes.len());
            n
        });
        out.push("exec.enumerate_ms", t);

        let (_, rank) = spec.exact_plans[rep % spec.exact_plans.len()];
        let ranking = rank.ranking(&instance);
        let phi = phis.next(spec.phi_band);
        let tracer = Recorder::default();
        exact_quantile_batch_encoded_traced(&enc_instance, &ranking, &[phi], &options, &tracer)
            .map_err(|e| err(&e))?;
        let p = tracer.0.into_inner();
        out.push("core.prepare_ms", p.get("prepare"));
        out.push("core.pivot_ms", p.get("pivot"));
        out.push("core.trim_ms", p.get("trim"));
        out.push("core.leaf_ms", p.get("leaf"));
        out.push("core.rounds", p.rounds as f64);
        out.push("core.leaf_answers", p.leaf_answers as f64);
        let (kept, base) = p.kept();
        out.push("core.trim_kept", kept as f64);
        out.push("core.trim_candidates", base as f64);
        out.push("attributed.quantile_ms", p.total());

        let base_phi = phis.next(BATCH_BAND);
        let batch: Vec<f64> = BATCH_OFFSETS.iter().map(|o| base_phi + o).collect();
        let tracer = Recorder::default();
        exact_quantile_batch_encoded_traced(&enc_instance, &ranking, &batch, &options, &tracer)
            .map_err(|e| err(&e))?;
        out.push("attributed.batch_ms", tracer.0.into_inner().total());

        let phi = phis.next(spec.phi_band);
        let tracer = Recorder::default();
        approximate_sum_quantile_batch_encoded_traced(
            &enc_instance,
            &approx_ranking,
            &[phi],
            spec.approx_eps,
            &options,
            &tracer,
        )
        .map_err(|e| err(&e))?;
        let p = tracer.0.into_inner();
        out.push("core.lossy_trim_ms", p.get("trim"));
        out.push("attributed.approx_ms", p.total());

        let sampling = SamplingOptions {
            epsilon: spec.sample_eps,
            delta: spec.sample_delta,
            seed: seeds.phis.wrapping_add(rep as u64),
        };
        let phi = phis.next(spec.phi_band);
        let (res, t) = timed(|| {
            quantile_by_sampling_batch_encoded(&enc_instance, &approx_ranking, &[phi], &sampling)
        });
        res.map_err(|e| err(&e))?;
        out.push("core.sample_ms", t);

        let (plan, t) = timed(|| {
            PreparedPlan::compile(
                "p",
                u64::MAX,
                "m",
                1,
                query.clone(),
                ranking.clone(),
                &database,
                Some(&encoded),
            )
        });
        plan.map_err(|e| err(&e))?;
        out.push("engine.compile_ms", t);

        let generation = rep as u64 + 2;
        let (next, t) = timed(|| {
            spec.replaced
                .generate(seeds.replaced[Seeds::variant(generation)])
        });
        out.push("workload.generate_replaced_ms", t);
        let (replace_ms, stall_ms) = replace_with_reader(&engine, probe, next.into_parts().1)?;
        out.push("engine.replace_ms", replace_ms);
        out.push("engine.read_stall_ms", stall_ms);

        let mut hits = Vec::with_capacity(1000);
        for i in 0..1000 {
            let phi = CACHED_PHIS[i % CACHED_PHIS.len()];
            let started = Instant::now();
            let answer = engine.quantile(probe, phi).map_err(|e| err(&e))?;
            hits.push(started.elapsed().as_secs_f64() * 1e6);
            if !answer.from_cache {
                return Err(format!("engine-direct read of φ={phi} missed the cache"));
            }
        }
        out.push("engine.cache_hit_us", median(&hits).unwrap_or(0.0));
        rep += 1;
    }
    Ok(out)
}

/// `Engine::replace_database` of "r" while another thread reads cache hits of
/// the probe plan on "m". Returns the replace time and the slowest read that
/// overlapped it, both in ms.
fn replace_with_reader(engine: &Engine, probe: &str, db: Database) -> Result<(f64, f64), String> {
    let stop = AtomicBool::new(false);
    let started_reading = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut reads: Vec<(Instant, Duration)> = Vec::new();
            let mut i = 0usize;
            while !stop.load(Ordering::SeqCst) {
                let started = Instant::now();
                let _ = black_box(engine.quantile(probe, CACHED_PHIS[i % CACHED_PHIS.len()]));
                reads.push((started, started.elapsed()));
                started_reading.store(true, Ordering::SeqCst);
                i += 1;
            }
            reads
        });
        while !started_reading.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        let started = Instant::now();
        let result = engine.replace_database("r", db);
        let elapsed = started.elapsed();
        stop.store(true, Ordering::SeqCst);
        let reads = reader.join().expect("reader thread panicked");
        result.map_err(|e| e.to_string())?;
        let end = started + elapsed;
        let stall = reads
            .iter()
            .filter(|(s, d)| *s < end && *s + *d > started)
            .map(|(_, d)| ms(*d))
            .fold(0.0, f64::max);
        Ok((ms(elapsed), stall))
    })
}
