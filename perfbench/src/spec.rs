//! The three workloads: databases, plans, request mix and server settings.
//!
//! Every database is produced by a workspace generator from a seed derived from
//! `--seed`. The server receives it as an `open`/`replace` command line and
//! generates it itself; the oracle regenerates the same instance in-process
//! from the same parameters.

use qjoin_query::variable::vars;
use qjoin_query::Instance;
use qjoin_ranking::Ranking;
use qjoin_workload::path::PathConfig;
use qjoin_workload::star_schema::StarSchemaConfig;

/// A database generator with every parameter fixed except the seed.
#[derive(Clone, Copy, Debug)]
pub enum Gen {
    /// `R1(x1,x2), R2(x2,x3), R3(x3,x4)`; fan-out `rows / domain` per join step.
    Path3 {
        rows: usize,
        domain: usize,
        weights: i64,
        skew: f64,
    },
    /// `Orders(o,wo), Lineitem(o,p,wl), Part(p,wp)` with `|Q(D)| = lineitems`.
    Star { lineitems: usize },
}

impl Gen {
    fn star_config(lineitems: usize, seed: u64) -> StarSchemaConfig {
        StarSchemaConfig {
            seed,
            ..StarSchemaConfig::with_scale(lineitems)
        }
    }

    /// The `<workload> key=value ...` tail of an `open`/`replace` command.
    pub fn wire_args(&self, seed: u64) -> String {
        match *self {
            Gen::Path3 {
                rows,
                domain,
                weights,
                skew,
            } => format!(
                "path atoms=3 rows={rows} domain={domain} weights={weights} skew={skew} seed={seed}"
            ),
            Gen::Star { lineitems } => {
                let c = Self::star_config(lineitems, seed);
                format!(
                    "starschema lineitems={} orders={} parts={} weights={} skew={} seed={}",
                    c.lineitems, c.orders, c.parts, c.weight_range, c.skew, c.seed
                )
            }
        }
    }

    /// The same instance the server builds from [`Gen::wire_args`].
    pub fn generate(&self, seed: u64) -> Instance {
        match *self {
            Gen::Path3 {
                rows,
                domain,
                weights,
                skew,
            } => PathConfig {
                atoms: 3,
                tuples_per_relation: rows,
                join_domain: domain,
                weight_range: weights,
                skew,
                seed,
            }
            .generate(),
            Gen::Star { lineitems } => Self::star_config(lineitems, seed).generate(),
        }
    }
}

/// A ranking as the wire spells it (`ranking=<wire>`) plus the variables it names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RankSpec {
    pub wire: &'static str,
}

impl RankSpec {
    /// The ranking over `instance`'s query, built without the server's parser.
    pub fn ranking(&self, instance: &Instance) -> Ranking {
        let (kind, names) = self.wire.split_once(':').expect("kind:vars");
        let weighted = if names == "*" {
            instance.query().variables()
        } else {
            vars(&names.split(',').collect::<Vec<_>>())
        };
        match kind {
            "max" => Ranking::max(weighted),
            "lex" => Ranking::lex(weighted),
            "sum" => Ranking::sum(weighted),
            other => panic!("unsupported ranking kind {other}"),
        }
    }
}

/// How many operations of each kind one round of the main connection sends.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    pub quantile: usize,
    pub batch: usize,
    pub approx: usize,
    pub sampled: usize,
    pub replace: usize,
    pub cached: usize,
}

/// One workload.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Engine executor (work-stealing pool) threads.
    pub threads: usize,
    /// Server worker threads.
    pub workers: usize,
    /// Engine result-cache capacity and shard count.
    pub cache_capacity: usize,
    pub cache_shards: usize,
    /// The main database: never replaced; plans, registrations and cached reads.
    pub main: Gen,
    /// Plans on the main database, in the order they are registered at set-up.
    pub exact_plans: &'static [(&'static str, RankSpec)],
    pub approx_plan: (&'static str, RankSpec),
    /// The ranking of every plan registered during the timed phase.
    pub register_rank: RankSpec,
    /// The database replaced once per round, with one exact plan on it.
    pub replaced: Gen,
    pub replaced_plan: (&'static str, RankSpec),
    /// The second connection reads all the time (true) or only while a replace runs.
    pub probe_continuous: bool,
    pub mix: Mix,
    /// Uncached single-φ requests draw φ from this band.
    pub phi_band: (f64, f64),
    /// ε of `eps=` requests, and ε, δ of sampled requests.
    pub approx_eps: f64,
    pub sample_eps: f64,
    pub sample_delta: f64,
    /// Set-up repetitions; `setup_s` is their median.
    pub setup_repeats: usize,
}

/// The φ values answered once in warm-up and then asked again as cache hits.
pub const CACHED_PHIS: [f64; 8] = [
    0.0625, 0.1875, 0.3125, 0.4375, 0.5625, 0.6875, 0.8125, 0.9375,
];

/// Offsets of a 5-φ batch from its base φ (the base is drawn from `BATCH_BAND`).
pub const BATCH_OFFSETS: [f64; 5] = [0.0, 0.2, 0.4, 0.6, 0.8];
pub const BATCH_BAND: (f64, f64) = (0.05, 0.15);

const MAX_ALL: RankSpec = RankSpec { wire: "max:*" };
const SUM_ALL: RankSpec = RankSpec { wire: "sum:*" };
const LEX_ENDS: RankSpec = RankSpec { wire: "lex:x4,x1" };
const SUM_WL: RankSpec = RankSpec { wire: "sum:wl" };
const SUM_STAR: RankSpec = RankSpec {
    wire: "sum:wo,wl,wp",
};

pub const NAMES: [&str; 3] = ["trim-heavy", "leaf-heavy", "serve-mixed"];

/// The workload called `name`, scaled down by `scale` (1 = full size).
pub fn spec(name: &str, scale: usize) -> Option<Spec> {
    let s = scale.max(1);
    let path = |rows: usize| Gen::Path3 {
        rows: rows / s,
        domain: rows / s / 10,
        weights: 1_000_000,
        skew: 0.0,
    };
    let common = Spec {
        threads: 2,
        workers: 2,
        cache_capacity: 1 << 16,
        cache_shards: 8,
        main: path(1000),
        exact_plans: &[("mx", MAX_ALL), ("lx", LEX_ENDS)],
        approx_plan: ("sa", SUM_ALL),
        register_rank: MAX_ALL,
        replaced: path(1000),
        replaced_plan: ("rx", MAX_ALL),
        probe_continuous: false,
        mix: Mix {
            quantile: 6,
            batch: 2,
            approx: 1,
            sampled: 2,
            // Replacing the small path3 costs ~5 ms; three per round give
            // `replace_stall_ms` enough samples for a steady median.
            replace: 3,
            cached: 600,
        },
        phi_band: (0.40, 0.60),
        approx_eps: 0.02,
        // The sampler refuses when its Hoeffding sample is not smaller than
        // |Q(D)|; the small instances need a looser ε to stay below it.
        sample_eps: if s > 1 { 0.1 } else { 0.05 },
        sample_delta: 1e-9,
        setup_repeats: 5,
    };
    Some(match name {
        "trim-heavy" => common,
        "leaf-heavy" => Spec {
            main: Gen::Star {
                lineitems: 100_000 / s,
            },
            exact_plans: &[("ex", SUM_WL)],
            approx_plan: ("sa", SUM_STAR),
            register_rank: SUM_WL,
            replaced: Gen::Star {
                lineitems: 100_000 / s,
            },
            replaced_plan: ("rx", SUM_WL),
            mix: Mix {
                quantile: 4,
                batch: 1,
                approx: 2,
                replace: 1,
                ..common.mix
            },
            ..common
        },
        "serve-mixed" => Spec {
            threads: 1,
            main: path(300),
            exact_plans: &[("mx", MAX_ALL)],
            replaced: Gen::Star {
                lineitems: 20_000 / s,
            },
            replaced_plan: ("rx", SUM_WL),
            probe_continuous: true,
            mix: Mix {
                quantile: 2,
                batch: 1,
                approx: 1,
                sampled: 1,
                replace: 1,
                cached: 400,
            },
            ..common
        },
        _ => return None,
    })
}
