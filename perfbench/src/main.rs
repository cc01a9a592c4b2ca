//! `perfbench`: the quantile-join server's benchmark.
//!
//! ```text
//! perfbench --workload <trim-heavy|leaf-heavy|serve-mixed> --seed <n> --seconds <s> --trace <0|1>
//!           [--small]      every workload at a tenth of its size, all checks on
//! perfbench --self-test    feed the checker deliberately wrong replies
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics with `--trace 1`. See README.md.

mod layers;
mod oracle;
mod selftest;
mod spec;
mod stats;
mod wire;

use oracle::{Acc, Checker, DbKey, Expect, IterKey, Table};
use spec::{RankSpec, Spec};
use stats::{median, percentile, Metrics};
use std::collections::HashMap;
use std::process::ExitCode;
use wire::{Kind, Seeds, WireRun};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    small: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        small: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => args.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => args.trace = value()? == "1",
            "--small" => args.small = true,
            "--self-test" => args.self_test = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    if args.self_test {
        return Ok(if selftest::run()? {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    let scale = if args.small { 10 } else { 1 };
    let spec = spec::spec(&args.workload, scale).ok_or_else(|| {
        format!(
            "unknown workload {:?}; expected one of {:?}",
            args.workload,
            spec::NAMES
        )
    })?;
    let seeds = Seeds::from(args.seed);
    let wire = wire::run(&spec, seeds, args.seconds)?;
    let layer_times = if args.trace {
        Some(layers::run(&spec, seeds, args.seconds / 4.0)?)
    } else {
        None
    };
    let (attempted, failed, oracle_ok) = check(&spec, seeds, &wire)?;
    let e2e = end_to_end(&spec, &wire);
    let metrics = match &layer_times {
        Some(l) => per_layer(&wire, &e2e, l),
        None => e2e,
    };
    let correct = oracle_ok && failed == 0;
    println!("{}", metrics.result_line(correct, attempted, failed));
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Checks every reply against the oracle. Returns (attempted, failed, oracle
/// self-consistent).
fn check(spec: &Spec, seeds: Seeds, wire: &WireRun) -> Result<(u64, u64, bool), String> {
    // Per database: the rankings queried, and the φ of each `eps=` request by
    // (ranking, ε).
    type Approx = HashMap<(&'static str, u64), (RankSpec, f64, Vec<f64>)>;
    let mut wanted: HashMap<DbKey, (Vec<RankSpec>, Approx)> = HashMap::new();
    for op in &wire.ops {
        let (ranks, approx) = wanted.entry(op.sent.db).or_default();
        if !ranks.contains(&op.sent.rank) {
            ranks.push(op.sent.rank);
        }
        if let Expect::Answers {
            acc: Acc::Approx { eps },
            ..
        } = op.sent.expect
        {
            let (_, _, phis) = approx.entry((op.sent.rank.wire, eps.to_bits())).or_insert((
                op.sent.rank,
                eps,
                Vec::new(),
            ));
            phis.extend(&op.sent.phis);
        }
    }
    let mut tables: HashMap<(DbKey, &'static str), Table> = HashMap::new();
    let mut iterations: HashMap<IterKey, u64> = HashMap::new();
    let mut oracle_ok = true;
    for (db, (ranks, approx)) in wanted {
        let instance = match db {
            DbKey::Main => spec.main.generate(seeds.main),
            DbKey::Replaced(v) => spec.replaced.generate(seeds.replaced[v]),
        };
        let built = oracle::tables(&instance, &ranks).and_then(|built| {
            for (rank, eps, mut phis) in approx.into_values() {
                phis.sort_by(f64::total_cmp);
                phis.dedup();
                let counts = oracle::approx_iterations(&instance, rank, eps, &phis)?;
                for (phi, i) in phis.iter().zip(counts) {
                    iterations.insert((db, rank.wire, eps.to_bits(), phi.to_bits()), i);
                }
            }
            Ok(built)
        });
        match built {
            Ok(built) => {
                for (rank, table) in ranks.iter().zip(built) {
                    tables.insert((db, rank.wire), table);
                }
            }
            Err(e) => {
                eprintln!("oracle: {e}");
                oracle_ok = false;
            }
        }
    }
    if !oracle_ok {
        let all = wire.ops.iter().map(|op| op.repeats).sum();
        return Ok((all, all, false));
    }
    let lookup = |db: DbKey, rank: RankSpec| &tables[&(db, rank.wire)];
    let mut checker = Checker::new(&lookup, &iterations);
    let (mut attempted, mut failed) = (0u64, 0u64);
    for op in &wire.ops {
        attempted += op.repeats;
        if let Err(why) = checker.check(&op.sent) {
            failed += op.repeats;
            if failed <= 5 {
                eprintln!("failed {:?} on {}: {why}", op.kind, op.sent.plan);
            }
        }
    }
    eprintln!(
        "largest rank error / |Q(D)|: eps= {:.2e} (I at most {}), sampled {:.2e}",
        checker.worst_approx,
        iterations.values().max().unwrap_or(&0),
        checker.worst_sampled
    );
    Ok((attempted, failed, true))
}

fn latencies_ms(wire: &WireRun, kind: Kind) -> Vec<f64> {
    wire.ops
        .iter()
        .filter(|op| op.kind == kind && op.sent.reply.is_ok())
        .map(|op| stats::ms(op.latency))
        .collect()
}

fn end_to_end(spec: &Spec, wire: &WireRun) -> Metrics {
    let p50 = |kind| median(&latencies_ms(wire, kind)).unwrap_or(0.0);
    let cached = &wire.cached_ms;
    let tail: Vec<String> = [0.5, 0.9, 0.99, 0.999]
        .iter()
        .map(|&q| format!("p{}={:.4}", q * 100.0, percentile(cached, q).unwrap_or(0.0)))
        .collect();
    eprintln!("cache hits: n={} {} ms", cached.len(), tail.join(" "));
    // The probe counts as traffic only where it reads all the time.
    let main_completed: u64 = wire
        .ops
        .iter()
        .filter(|op| !matches!(op.kind, Kind::Untimed | Kind::Probe) && op.sent.reply.is_ok())
        .map(|op| op.repeats)
        .sum();
    let completed = main_completed
        + if spec.probe_continuous {
            wire.probe_reads
        } else {
            0
        };
    let mut m = Metrics::default();
    m.put("setup_s", median(&wire.setup_s).unwrap_or(0.0), "s");
    m.put("register_p50_ms", p50(Kind::Register), "ms");
    m.put("replace_p50_ms", p50(Kind::Replace), "ms");
    m.put(
        "replace_stall_ms",
        median(&wire.stalls_ms).unwrap_or(0.0),
        "ms",
    );
    m.put("quantile_p50_ms", p50(Kind::Quantile), "ms");
    m.put("batch_p50_ms", p50(Kind::Batch), "ms");
    m.put("approx_p50_ms", p50(Kind::Approx), "ms");
    m.put("sampled_p50_ms", p50(Kind::Sampled), "ms");
    m.put("cached_p50_ms", median(cached).unwrap_or(0.0), "ms");
    m.put(
        "requests_per_s",
        completed as f64 / wire.timed_wall.as_secs_f64(),
        "1/s",
    );
    m.put("peak_rss_mb", wire.peak_rss_mb, "MiB");
    m
}

fn per_layer(wire: &WireRun, e2e: &Metrics, l: &layers::Layers) -> Metrics {
    let mut m = Metrics::default();
    for name in [
        "workload.generate_ms",
        "data.encode_ms",
        "exec.row_count_ms",
        "exec.context_ms",
        "exec.enumerate_ms",
        "core.prepare_ms",
        "core.pivot_ms",
        "core.trim_ms",
        "core.leaf_ms",
        "core.lossy_trim_ms",
        "core.sample_ms",
        "engine.compile_ms",
        "engine.replace_ms",
        "engine.read_stall_ms",
    ] {
        m.put(name, l.get(name), "ms");
    }
    m.put("core.rounds", l.get("core.rounds"), "count");
    m.put("core.leaf_answers", l.get("core.leaf_answers"), "count");
    let base = l.sum("core.trim_candidates");
    let ratio = if base > 0.0 {
        l.sum("core.trim_kept") / base
    } else {
        0.0
    };
    m.put("core.trim_keep_ratio", ratio, "ratio");
    m.put(
        "core.trim_candidates",
        l.get("core.trim_candidates"),
        "count",
    );
    let cache_hit_us = l.get("engine.cache_hit_us");
    m.put("engine.cache_hit_us", cache_hit_us, "us");
    let rounds = wire.rounds.max(1) as f64;
    m.put("engine.solved", wire.solved as f64 / rounds, "count");
    m.put(
        "engine.coalesced_waiters",
        wire.coalesced_waiters as f64 / rounds,
        "count",
    );
    let server_us = |name| wire::histogram_p50(&wire.stats_json, name).unwrap_or(0.0) * 1e6;
    let queue = server_us("qjoin_queue_wait_seconds");
    let execute = server_us("qjoin_execute_seconds");
    let write = server_us("qjoin_write_seconds");
    m.put("server.queue_wait_us", queue, "us");
    m.put("server.execute_us", execute, "us");
    m.put("server.write_us", write, "us");
    let cached_ms = e2e.get("cached_p50_ms").unwrap_or(0.0);
    m.put(
        "server.wire_overhead_us",
        cached_ms * 1e3 - cache_hit_us,
        "us",
    );
    // The client-side cache-hit tail. It is a per-layer figure, without a
    // bound, because its run-to-run spread is wider than any allowed bound.
    m.put(
        "wire.cached_p99_ms",
        percentile(&wire.cached_ms, 0.99).unwrap_or(0.0),
        "ms",
    );
    let solved = wire.solved.max(1) as f64;
    m.put("par.tasks", wire.par_tasks as f64 / solved, "count");
    m.put("par.steals", wire.par_steals as f64 / solved, "count");
    m.put("rss.setup_mb", wire.rss_setup_mb, "MiB");

    // End-to-end time minus the layer times it is attributed to, per operation.
    let e = |name: &str| e2e.get(name).unwrap_or(0.0);
    let residuals = [
        (
            "unattributed.quantile_ms",
            e("quantile_p50_ms") - l.get("attributed.quantile_ms"),
        ),
        (
            "unattributed.batch_ms",
            e("batch_p50_ms") - l.get("attributed.batch_ms"),
        ),
        (
            "unattributed.approx_ms",
            e("approx_p50_ms") - l.get("attributed.approx_ms"),
        ),
        (
            "unattributed.sampled_ms",
            e("sampled_p50_ms") - l.get("core.sample_ms"),
        ),
        (
            "unattributed.cached_ms",
            cached_ms - (queue + execute + write) / 1e3,
        ),
        (
            "unattributed.register_ms",
            e("register_p50_ms") - l.get("engine.compile_ms"),
        ),
        (
            "unattributed.replace_ms",
            e("replace_p50_ms")
                - l.get("workload.generate_replaced_ms")
                - l.get("engine.replace_ms"),
        ),
    ];
    for (name, value) in residuals {
        m.put(name, value, "ms");
    }
    m
}
