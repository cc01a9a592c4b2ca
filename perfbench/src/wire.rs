//! The end-to-end run: an in-process `qjoin-server` on loopback, driven in a
//! closed loop by the `Client` library over at most two connections.
//!
//! The main connection sends whole rounds of a fixed request mix until the run
//! length has passed. The probe connection sends cache-hit reads on a plan over
//! the main database, either all the time or only while a `replace` of the other
//! database runs, so that a replace's effect on unrelated readers shows.

use crate::oracle::{Acc, DbKey, Expect, Sent};
use crate::spec::{RankSpec, Spec, BATCH_BAND, BATCH_OFFSETS, CACHED_PHIS};
use crate::stats::proc_status_mib;
use qjoin_engine::cli::CliSession;
use qjoin_engine::{Engine, EngineConfig};
use qjoin_server::{Client, Server, ServerConfig};
use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The seeds one run derives from `--seed`.
#[derive(Clone, Copy, Debug)]
pub struct Seeds {
    pub main: u64,
    /// The replaced database cycles through these, one per generation.
    pub replaced: [u64; 2],
    pub phis: u64,
}

impl Seeds {
    pub fn from(seed: u64) -> Seeds {
        Seeds {
            main: splitmix(seed ^ 0x6d61_696e),
            replaced: [splitmix(seed ^ 0x7265_7031), splitmix(seed ^ 0x7265_7032)],
            phis: splitmix(seed ^ 0x7068_6973),
        }
    }

    /// The replaced database's variant at `generation` (1-based).
    pub fn variant(generation: u64) -> usize {
        ((generation - 1) % 2) as usize
    }
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) % 1_000_000_007
}

/// What kind of operation a request is, for its latency figure.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kind {
    /// Set-up and warm-up requests: checked, not timed.
    Untimed,
    Register,
    Replace,
    /// The uncached exact read of the replaced plan right after each replace.
    ReplaceCheck,
    Quantile,
    Batch,
    Approx,
    Sampled,
    Cached,
    /// A read on the probe connection.
    Probe,
}

/// One request with its reply, timing and what the checker needs.
pub struct Op {
    pub kind: Kind,
    /// How many identical requests this op stands for (probe reads are kept
    /// once per distinct reply).
    pub repeats: u64,
    pub started: Instant,
    pub latency: Duration,
    pub sent: Sent,
}

/// Everything the end-to-end run observed.
pub struct WireRun {
    pub ops: Vec<Op>,
    pub setup_s: Vec<f64>,
    pub rss_setup_mb: f64,
    pub peak_rss_mb: f64,
    pub timed_wall: Duration,
    pub rounds: u64,
    /// Reads the probe connection completed in the timed phase.
    pub probe_reads: u64,
    /// Latencies of the main connection's timed cache hits, in ms.
    pub cached_ms: Vec<f64>,
    /// The slowest overlapping probe read of each timed replace, in ms.
    pub stalls_ms: Vec<f64>,
    /// `stats json` after the timed phase.
    pub stats_json: String,
    /// Engine counter and executor deltas over the timed phase.
    pub solved: u64,
    pub coalesced_waiters: u64,
    pub par_tasks: u64,
    pub par_steals: u64,
}

struct Running {
    engine: Arc<Engine>,
    addr: SocketAddr,
    join: JoinHandle<std::io::Result<qjoin_server::ServerSummary>>,
}

impl Running {
    fn start(spec: &Spec) -> Result<Running, String> {
        let engine = Arc::new(Engine::with_config(EngineConfig {
            cache_capacity: spec.cache_capacity,
            cache_shards: spec.cache_shards,
            threads: Some(spec.threads),
            ..EngineConfig::default()
        }));
        let session = Arc::new(CliSession::with_engine(Arc::clone(&engine)));
        let config = ServerConfig {
            workers: spec.workers,
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", session, config).map_err(|e| e.to_string())?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let join = std::thread::spawn(move || server.run());
        Ok(Running { engine, addr, join })
    }

    fn connect(&self) -> Result<Client, String> {
        let client = Client::connect(self.addr).map_err(|e| e.to_string())?;
        client
            .set_read_timeout(Some(Duration::from_secs(120)))
            .map_err(|e| e.to_string())?;
        Ok(client)
    }

    fn stop(self) -> Result<(), String> {
        self.connect()?.shutdown().map_err(|e| e.to_string())?;
        match self.join.join() {
            Ok(Ok(_)) => Ok(()),
            Ok(Err(e)) => Err(e.to_string()),
            Err(_) => Err("server thread panicked".to_string()),
        }
    }
}

/// Distinct φ values from a band: an irrational rotation, skipping any value
/// already used so that every request misses the cache.
pub struct PhiSource {
    state: f64,
    used: HashSet<u64>,
}

impl PhiSource {
    pub fn new(seed: u64) -> PhiSource {
        PhiSource {
            state: (seed % 1_000_003) as f64 / 1_000_003.0,
            used: CACHED_PHIS.iter().map(|p| p.to_bits()).collect(),
        }
    }

    pub fn next(&mut self, band: (f64, f64)) -> f64 {
        loop {
            self.state = (self.state + 0.618_033_988_749_894_9) % 1.0;
            let phi = band.0 + (band.1 - band.0) * self.state;
            if self.used.insert(phi.to_bits()) {
                return phi;
            }
        }
    }
}

/// The main connection: sends requests and records each with its reply.
struct MainConn<'a> {
    spec: &'a Spec,
    seeds: Seeds,
    client: Client,
    epoch: u32,
    /// The replaced database's current generation.
    replaced_gen: u64,
    phis: PhiSource,
    counter: u64,
    ops: Vec<Op>,
    /// Timed cache hits: their latencies in ms, and their replies.
    cached_ms: Vec<f64>,
    hits: Hits,
}

impl MainConn<'_> {
    #[allow(clippy::too_many_arguments)]
    fn send(
        &mut self,
        kind: Kind,
        command: String,
        plan: &str,
        db: DbKey,
        rank: RankSpec,
        phis: Vec<f64>,
        expect: Expect,
    ) {
        let generation = match db {
            DbKey::Main => 1,
            DbKey::Replaced(_) => self.replaced_gen,
        };
        let started = Instant::now();
        let reply = self.client.send(&command).map_err(|e| e.to_string());
        let latency = started.elapsed();
        self.ops.push(Op {
            kind,
            repeats: 1,
            started,
            latency,
            sent: Sent {
                epoch: self.epoch,
                plan: plan.to_string(),
                db,
                generation,
                rank,
                phis,
                expect,
                reply,
            },
        });
    }

    /// A single-φ request that must miss the cache.
    fn quantile(&mut self, kind: Kind, plan: (&str, RankSpec), db: DbKey, phi: f64, acc: Acc) {
        let command = format!("quantile {} {phi}{}", plan.0, acc.wire());
        let expect = Expect::Answers { acc, cached: false };
        self.send(kind, command, plan.0, db, plan.1, vec![phi], expect);
    }

    fn next_count(&mut self) -> u64 {
        self.counter += 1;
        self.counter
    }

    fn open(&mut self, name: &str, gen: crate::spec::Gen, seed: u64, db: DbKey, rank: RankSpec) {
        let command = format!("open {name} {}", gen.wire_args(seed));
        self.send(
            Kind::Untimed,
            command,
            name,
            db,
            rank,
            vec![],
            Expect::Generation(1),
        );
    }

    fn register(&mut self, kind: Kind, name: &str, db_name: &str, db: DbKey, rank: RankSpec) {
        let command = format!("register {name} {db_name} ranking={}", rank.wire);
        self.send(kind, command, name, db, rank, vec![], Expect::Registered);
    }

    /// `open` + `register` of every plan + one first solve per plan.
    fn set_up(&mut self) {
        let spec = self.spec;
        let main_rank = spec.exact_plans[0].1;
        self.open("m", spec.main, self.seeds.main, DbKey::Main, main_rank);
        for &(name, rank) in spec.exact_plans.iter().chain([&spec.approx_plan]) {
            self.register(Kind::Untimed, name, "m", DbKey::Main, rank);
        }
        for &plan in spec.exact_plans {
            self.quantile(Kind::Untimed, plan, DbKey::Main, 0.5, Acc::Exact);
        }
        let approx = Acc::Approx {
            eps: spec.approx_eps,
        };
        self.quantile(Kind::Untimed, spec.approx_plan, DbKey::Main, 0.5, approx);
        let replaced = DbKey::Replaced(0);
        let (rname, rrank) = spec.replaced_plan;
        self.open("r", spec.replaced, self.seeds.replaced[0], replaced, rrank);
        self.register(Kind::Untimed, rname, "r", replaced, rrank);
        self.quantile(Kind::Untimed, spec.replaced_plan, replaced, 0.5, Acc::Exact);
    }

    /// Answers every cached φ once on every exact plan of the main database.
    fn warm_cache(&mut self) {
        for &plan in self.spec.exact_plans {
            for phi in CACHED_PHIS {
                self.quantile(Kind::Untimed, plan, DbKey::Main, phi, Acc::Exact);
            }
        }
    }

    fn cached(&mut self, kind: Kind) {
        let c = self.next_count() as usize;
        let p = c % self.spec.exact_plans.len();
        let i = (c / self.spec.exact_plans.len()) % CACHED_PHIS.len();
        let plan = self.spec.exact_plans[p];
        let command = format!("quantile {} {}", plan.0, CACHED_PHIS[i]);
        if kind == Kind::Untimed {
            let expect = Expect::Answers {
                acc: Acc::Exact,
                cached: true,
            };
            self.send(
                kind,
                command,
                plan.0,
                DbKey::Main,
                plan.1,
                vec![CACHED_PHIS[i]],
                expect,
            );
            return;
        }
        let started = Instant::now();
        let reply = self.client.send(&command).map_err(|e| e.to_string());
        self.cached_ms.push(started.elapsed().as_secs_f64() * 1e3);
        self.hits.record(p, i, reply);
    }

    /// A 5-φ batch on the last exact plan (single-φ requests use the first, so
    /// that each latency figure has one plan's requests only).
    fn batch(&mut self, kind: Kind) {
        let plan = *self.spec.exact_plans.last().expect("an exact plan");
        let base = self.phis.next(BATCH_BAND);
        let phis: Vec<f64> = BATCH_OFFSETS.iter().map(|o| base + o).collect();
        let list: Vec<String> = phis.iter().map(f64::to_string).collect();
        let command = format!("batch {} {}", plan.0, list.join(" "));
        let expect = Expect::Answers {
            acc: Acc::Exact,
            cached: false,
        };
        self.send(kind, command, plan.0, DbKey::Main, plan.1, phis, expect);
    }

    fn replace(&mut self, kind: Kind, probe: Option<&Probe>) {
        let generation = self.replaced_gen + 1;
        let variant = Seeds::variant(generation);
        let seed = self.seeds.replaced[variant];
        let command = format!("replace r {}", self.spec.replaced.wire_args(seed));
        if let Some(probe) = probe {
            probe.begin_replace();
        }
        self.replaced_gen = generation;
        let db = DbKey::Replaced(variant);
        let rank = self.spec.replaced_plan.1;
        self.send(
            kind,
            command,
            "r",
            db,
            rank,
            vec![],
            Expect::Generation(generation),
        );
        if let Some(probe) = probe {
            probe.end_replace();
        }
        // φ = 0.5 was answered in the previous generation; it must miss now.
        let check = if kind == Kind::Untimed {
            Kind::Untimed
        } else {
            Kind::ReplaceCheck
        };
        self.quantile(check, self.spec.replaced_plan, db, 0.5, Acc::Exact);
    }

    /// One round of the main connection's mix: the heavier requests, then one
    /// block of cache hits, so that only the block's first hit follows a solve.
    fn round(&mut self, timed: bool, probe: Option<&Probe>) {
        let spec = self.spec;
        let kind = |k: Kind| if timed { k } else { Kind::Untimed };
        let mut heavy: Vec<Kind> = Vec::new();
        let others = [
            (Kind::Register, 1),
            (Kind::Batch, spec.mix.batch),
            (Kind::Approx, spec.mix.approx),
            (Kind::Sampled, spec.mix.sampled),
            (Kind::Replace, spec.mix.replace),
        ];
        let mut rest: Vec<Kind> = others
            .iter()
            .flat_map(|&(k, n)| std::iter::repeat_n(k, n))
            .collect();
        rest.reverse();
        for _ in 0..spec.mix.quantile {
            heavy.push(Kind::Quantile);
            if let Some(k) = rest.pop() {
                heavy.push(k);
            }
        }
        while let Some(k) = rest.pop() {
            heavy.push(k);
        }
        for op in heavy {
            match op {
                Kind::Register => {
                    let name = format!("reg{}", self.next_count());
                    self.register(
                        kind(Kind::Register),
                        &name,
                        "m",
                        DbKey::Main,
                        spec.register_rank,
                    );
                }
                Kind::Quantile => {
                    let plan = spec.exact_plans[0];
                    let phi = self.phis.next(spec.phi_band);
                    self.quantile(kind(Kind::Quantile), plan, DbKey::Main, phi, Acc::Exact);
                }
                Kind::Batch => self.batch(kind(Kind::Batch)),
                Kind::Approx => {
                    let phi = self.phis.next(spec.phi_band);
                    let acc = Acc::Approx {
                        eps: spec.approx_eps,
                    };
                    self.quantile(kind(Kind::Approx), spec.approx_plan, DbKey::Main, phi, acc);
                }
                Kind::Sampled => {
                    let phi = self.phis.next(spec.phi_band);
                    let acc = Acc::Sampled {
                        eps: spec.sample_eps,
                        delta: spec.sample_delta,
                        seed: self.seeds.phis.wrapping_add(self.next_count()),
                    };
                    self.quantile(kind(Kind::Sampled), spec.approx_plan, DbKey::Main, phi, acc);
                }
                Kind::Replace => self.replace(kind(Kind::Replace), probe),
                _ => unreachable!("not a round operation"),
            }
        }
        for _ in 0..spec.mix.cached {
            self.cached(kind(Kind::Cached));
        }
    }
}

/// The probe connection's shared state.
struct Probe {
    state: Mutex<ProbeState>,
    wake: Condvar,
}

struct ProbeState {
    active: bool,
    stop: bool,
    completed: u64,
}

impl Probe {
    fn lock(&self) -> std::sync::MutexGuard<'_, ProbeState> {
        self.state.lock().expect("probe state poisoned")
    }

    /// Activates the probe and waits until it has finished one read, so that
    /// it is mid-loop when the replace is sent.
    fn begin_replace(&self) {
        let mut st = self.lock();
        if st.active {
            return;
        }
        st.active = true;
        let seen = st.completed;
        self.wake.notify_all();
        while st.completed == seen && !st.stop {
            st = self.wake.wait(st).expect("probe state poisoned");
        }
    }

    fn end_replace(&self) {
        self.lock().active = false;
    }
}

/// Cache-hit reads kept once per distinct reply, with how often each came, so
/// that the record does not grow with the read rate (and with it the peak
/// memory the benchmark reports).
#[derive(Default)]
struct Hits {
    reads: u64,
    replies: HashMap<HitKey, u64>,
}

/// (exact plan index, `CACHED_PHIS` index, reply).
type HitKey = (usize, usize, Result<Vec<String>, String>);

impl Hits {
    /// One read of `CACHED_PHIS[phi]` on exact plan `plan`.
    fn record(&mut self, plan: usize, phi: usize, reply: Result<Vec<String>, String>) {
        self.reads += 1;
        *self.replies.entry((plan, phi, reply)).or_default() += 1;
    }

    /// One op per distinct reply, standing for all the reads that got it.
    fn into_ops(self, spec: &Spec, epoch: u32, kind: Kind) -> Vec<Op> {
        let at = Instant::now();
        self.replies
            .into_iter()
            .map(|((p, i, reply), repeats)| Op {
                kind,
                started: at,
                latency: Duration::ZERO,
                repeats,
                sent: Sent {
                    epoch,
                    plan: spec.exact_plans[p].0.to_string(),
                    db: DbKey::Main,
                    generation: 1,
                    rank: spec.exact_plans[p].1,
                    phis: vec![CACHED_PHIS[i]],
                    expect: Expect::Answers {
                        acc: Acc::Exact,
                        cached: true,
                    },
                    reply,
                },
            })
            .collect()
    }
}

/// What the probe connection saw: its reads, and the timing of those sent
/// while a replace ran.
struct ProbeLog {
    hits: Hits,
    during_replace: Vec<(Instant, Duration)>,
}

/// The probe loop: cache-hit reads on the main database's first exact plan.
fn probe_loop(probe: &Probe, client: &mut Client, spec: &Spec, continuous: bool) -> ProbeLog {
    let (plan, _) = spec.exact_plans[0];
    let mut log = ProbeLog {
        hits: Hits::default(),
        during_replace: Vec::new(),
    };
    loop {
        let active = {
            let mut st = probe.lock();
            while !(st.active || continuous || st.stop) {
                st = probe.wake.wait(st).expect("probe state poisoned");
            }
            if st.stop {
                break;
            }
            st.active
        };
        let i = log.hits.reads as usize % CACHED_PHIS.len();
        let started = Instant::now();
        let reply = client
            .send(&format!("quantile {plan} {}", CACHED_PHIS[i]))
            .map_err(|e| e.to_string());
        let latency = started.elapsed();
        log.hits.record(0, i, reply);
        if active {
            log.during_replace.push((started, latency));
        }
        let mut st = probe.lock();
        st.completed += 1;
        probe.wake.notify_all();
    }
    log
}

/// Reads one histogram's p50 (in seconds) out of a `stats json` reply.
pub fn histogram_p50(stats_json: &str, name: &str) -> Option<f64> {
    let at = stats_json.find(&format!("\"{name}\":{{"))?;
    let rest = &stats_json[at..];
    let p50 = rest.find("\"p50_seconds\":")? + "\"p50_seconds\":".len();
    let end = rest[p50..].find([',', '}'])?;
    rest[p50..p50 + end].parse().ok()
}

/// Sets up a server, warms up, then sends whole rounds for at least `seconds`.
/// Set-up is repeated `spec.setup_repeats` times in all, each on a fresh server.
pub fn run(spec: &Spec, seeds: Seeds, seconds: f64) -> Result<WireRun, String> {
    let mut ops = Vec::new();
    let mut setup_s = Vec::new();
    let (server, mut conn) = set_up(spec, seeds, 0, &mut setup_s)?;
    let rss_setup_mb = proc_status_mib("VmRSS").unwrap_or(0.0);
    conn.warm_cache();
    conn.round(false, None);

    let probe = Probe {
        state: Mutex::new(ProbeState {
            active: false,
            stop: false,
            completed: 0,
        }),
        wake: Condvar::new(),
    };
    let mut probe_client = server.connect()?;
    let before = server.engine.stats().counters;
    let pool_before = server.engine.pool_stats();
    let epoch = conn.epoch;
    let continuous = spec.probe_continuous;
    let (log, rounds, timed_wall) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| probe_loop(&probe, &mut probe_client, spec, continuous));
        let started = Instant::now();
        let mut rounds = 0u64;
        while rounds == 0 || started.elapsed().as_secs_f64() < seconds {
            conn.round(true, Some(&probe));
            rounds += 1;
        }
        let timed_wall = started.elapsed();
        {
            let mut st = probe.lock();
            st.stop = true;
            probe.wake.notify_all();
        }
        let log = reader.join().expect("probe thread panicked");
        (log, rounds, timed_wall)
    });
    let after = server.engine.stats().counters;
    let pool_after = server.engine.pool_stats();
    let stats_json = conn
        .client
        .send("stats json")
        .map(|lines| lines.join("\n"))
        .unwrap_or_default();
    let peak_rss_mb = proc_status_mib("VmHWM").unwrap_or(0.0);

    let stalls_ms = stalls(&conn.ops, &log.during_replace);
    let probe_reads = log.hits.reads;
    let cached_ms = std::mem::take(&mut conn.cached_ms);
    ops.append(&mut conn.ops);
    ops.extend(std::mem::take(&mut conn.hits).into_ops(spec, epoch, Kind::Cached));
    ops.extend(log.hits.into_ops(spec, epoch, Kind::Probe));
    let _ = probe_client.quit();
    let MainConn { client, .. } = conn;
    let _ = client.quit();
    server.stop()?;
    // The remaining set-up repetitions run on fresh servers after the peak
    // memory was read, so that their freed allocations do not raise it.
    for epoch in 1..spec.setup_repeats as u32 {
        let (server, mut conn) = set_up(spec, seeds, epoch, &mut setup_s)?;
        ops.append(&mut conn.ops);
        drop(conn);
        server.stop()?;
    }
    Ok(WireRun {
        ops,
        setup_s,
        rss_setup_mb,
        peak_rss_mb,
        timed_wall,
        rounds,
        probe_reads,
        cached_ms,
        stalls_ms,
        stats_json,
        solved: after.solved - before.solved,
        coalesced_waiters: after.coalesced_waiters - before.coalesced_waiters,
        par_tasks: pool_after.tasks - pool_before.tasks,
        par_steals: pool_after.steals - pool_before.steals,
    })
}

/// Starts a server and times one set-up on it.
fn set_up<'a>(
    spec: &'a Spec,
    seeds: Seeds,
    epoch: u32,
    times: &mut Vec<f64>,
) -> Result<(Running, MainConn<'a>), String> {
    let server = Running::start(spec)?;
    let mut conn = MainConn {
        spec,
        seeds,
        client: server.connect()?,
        epoch,
        replaced_gen: 1,
        phis: PhiSource::new(seeds.phis),
        counter: 0,
        ops: Vec::new(),
        cached_ms: Vec::new(),
        hits: Hits::default(),
    };
    let started = Instant::now();
    conn.set_up();
    times.push(started.elapsed().as_secs_f64());
    Ok((server, conn))
}

/// For each timed replace, the slowest probe read whose interval overlaps it.
fn stalls(main: &[Op], reads: &[(Instant, Duration)]) -> Vec<f64> {
    main.iter()
        .filter(|op| op.kind == Kind::Replace)
        .map(|rep| {
            let (s, e) = (rep.started, rep.started + rep.latency);
            reads
                .iter()
                .filter(|(started, latency)| *started < e && *started + *latency > s)
                .map(|(_, latency)| latency.as_secs_f64() * 1e3)
                .fold(0.0, f64::max)
        })
        .collect()
}
