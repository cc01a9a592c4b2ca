//! The independent oracle and the reply checker.
//!
//! The oracle is the paper's §1 brute-force method: materialize the whole join
//! with `qjoin_exec::yannakakis::materialize` on a copy of the instance
//! regenerated from the seed, weigh every answer, and sort. It shares no code
//! with the §3 pivot-and-trim recursion the server runs. Each table is anchored once
//! against `qjoin_core::baseline::quantile_by_materialization` so that the sorted
//! table and the library's own brute-force entry point agree.
//!
//! `eps=` answers are held to the `ErrorBudget::Direct` bound, which grows with
//! the number of pivoting iterations I. I is counted here, by an ε-lossy solve of
//! the regenerated instance in this process, never read from the reply: a server
//! that misreported its iterations would otherwise widen its own bound.

use crate::spec::RankSpec;
use qjoin_core::baseline::{quantile_by_materialization, BaselineStrategy};
use qjoin_core::encoded::{approximate_sum_quantile_batch_encoded, encode_instance};
use qjoin_core::quantile::target_rank;
use qjoin_core::PivotingOptions;
use qjoin_exec::yannakakis::materialize;
use qjoin_query::Instance;
use qjoin_ranking::Weight;
use std::collections::HashMap;

/// Which generated database a request was answered against.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DbKey {
    Main,
    /// The replaced database; generations cycle through a few seed variants.
    Replaced(usize),
}

/// The accuracy a request asked for.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Acc {
    Exact,
    Approx { eps: f64 },
    Sampled { eps: f64, delta: f64, seed: u64 },
}

impl Acc {
    /// The request suffix, as the wire spells it.
    pub fn wire(&self) -> String {
        match *self {
            Acc::Exact => String::new(),
            Acc::Approx { eps } => format!(" eps={eps}"),
            Acc::Sampled { eps, delta, seed } => format!(" eps={eps} delta={delta} seed={seed}"),
        }
    }

    fn key(&self) -> (u64, u64, u64) {
        match *self {
            Acc::Exact => (0, 0, 0),
            Acc::Approx { eps } => (eps.to_bits(), 0, 0),
            Acc::Sampled { eps, delta, seed } => (eps.to_bits(), delta.to_bits(), seed),
        }
    }
}

/// What a reply must look like.
#[derive(Clone, Debug, PartialEq)]
pub enum Expect {
    /// One answer line per φ; `cached` says whether each must carry `(cached)`.
    Answers { acc: Acc, cached: bool },
    /// `register`: the plan line's `answers=` must equal `|Q(D)|`.
    Registered,
    /// `replace`/`open`: the reply must name this generation.
    Generation(u64),
}

/// One request as sent, with the reply it got.
#[derive(Clone, Debug)]
pub struct Sent {
    /// Which server process answered (set-up is repeated on fresh servers).
    pub epoch: u32,
    pub plan: String,
    pub db: DbKey,
    pub generation: u64,
    pub rank: RankSpec,
    pub phis: Vec<f64>,
    pub expect: Expect,
    pub reply: Result<Vec<String>, String>,
}

/// One parsed answer line:
/// `phi=0.5000[ eps=..]: weight=W rank=T/N iterations=I[ (cached)]`.
#[derive(Clone, Debug, PartialEq)]
pub struct AnswerLine {
    pub weight: String,
    pub rank: u128,
    pub total: u128,
    pub iterations: u64,
    pub cached: bool,
}

pub fn parse_answer(line: &str) -> Result<AnswerLine, String> {
    let bad = || format!("unparsable answer line {line:?}");
    let (_, body) = line.split_once(": weight=").ok_or_else(bad)?;
    let (body, cached) = match body.strip_suffix(" (cached)") {
        Some(rest) => (rest, true),
        None => (body, false),
    };
    let (weight, rest) = body.rsplit_once(" rank=").ok_or_else(bad)?;
    let (rank, iterations) = rest.split_once(" iterations=").ok_or_else(bad)?;
    let (rank, total) = rank.split_once('/').ok_or_else(bad)?;
    Ok(AnswerLine {
        weight: weight.to_string(),
        rank: rank.parse().map_err(|_| bad())?,
        total: total.parse().map_err(|_| bad())?,
        iterations: iterations.parse().map_err(|_| bad())?,
        cached,
    })
}

/// Parses a printed weight: `12.5` or `(1, 2.5, 3)`.
pub fn parse_weight(text: &str) -> Option<Weight> {
    match text.strip_prefix('(').and_then(|t| t.strip_suffix(')')) {
        Some(inner) => inner
            .split(", ")
            .map(|x| x.parse().ok())
            .collect::<Option<Vec<f64>>>()
            .map(Weight::Vec),
        None => text.parse().ok().map(Weight::Num),
    }
}

/// Every answer's weight under one ranking, sorted.
pub struct Table {
    sorted: Vec<Weight>,
}

impl Table {
    pub fn total(&self) -> u128 {
        self.sorted.len() as u128
    }

    pub fn at(&self, rank: u128) -> &Weight {
        &self.sorted[rank as usize]
    }

    /// `(answers strictly below w, answers equal to w)`.
    pub fn window(&self, w: &Weight) -> (u128, u128) {
        let below = self.sorted.partition_point(|x| x < w);
        let upto = self.sorted.partition_point(|x| x <= w);
        (below as u128, (upto - below) as u128)
    }
}

/// Materializes `instance` once and builds a sorted table per ranking. Each table
/// is checked against `quantile_by_materialization` at φ = 0.5.
pub fn tables(instance: &Instance, ranks: &[RankSpec]) -> Result<Vec<Table>, String> {
    let answers = materialize(instance).map_err(|e| e.to_string())?;
    let schema = answers.variables().to_vec();
    let mut out = Vec::new();
    for rank in ranks {
        let ranking = rank.ranking(instance);
        let mut sorted: Vec<Weight> = answers
            .rows()
            .iter()
            .map(|row| ranking.weight_of_row(&schema, row))
            .collect();
        sorted.sort();
        let table = Table { sorted };
        let anchor =
            quantile_by_materialization(instance, &ranking, 0.5, BaselineStrategy::Selection)
                .map_err(|e| e.to_string())?;
        if anchor.total_answers != table.total()
            || &anchor.weight != table.at(target_rank(0.5, table.total()))
        {
            return Err(format!(
                "oracle table for {} disagrees with quantile_by_materialization",
                rank.wire
            ));
        }
        out.push(table);
    }
    Ok(out)
}

/// The pivoting iterations of an ε-lossy SUM solve of `instance` at each of
/// `phis`, with the per-trim budget ε as the server spends it
/// (`ErrorBudget::Direct`). One batched solve; its per-φ iteration counts equal
/// those of single-φ solves.
pub fn approx_iterations(
    instance: &Instance,
    rank: RankSpec,
    eps: f64,
    phis: &[f64],
) -> Result<Vec<u64>, String> {
    let encoded = encode_instance(instance).map_err(|e| e.to_string())?;
    let results = approximate_sum_quantile_batch_encoded(
        &encoded,
        &rank.ranking(instance),
        phis,
        eps,
        &PivotingOptions::default(),
    )
    .map_err(|e| e.to_string())?;
    Ok(results.iter().map(|r| r.iterations as u64).collect())
}

/// (database, ranking, ε bits, φ bits) of an `eps=` request.
pub type IterKey = (DbKey, &'static str, u64, u64);

/// Checks replies in the order they were sent. Cold answers are remembered per
/// (server, plan, generation, φ, accuracy) so that a later cache hit can be
/// compared with the reply it repeats.
pub struct Checker<'a> {
    lookup: &'a dyn Fn(DbKey, RankSpec) -> &'a Table,
    /// I of every `eps=` request, from [`approx_iterations`].
    iterations: &'a HashMap<IterKey, u64>,
    cold: HashMap<ColdKey, String>,
    /// The largest rank error of a passing `eps=` and sampled answer, as a
    /// share of |Q(D)|.
    pub worst_approx: f64,
    pub worst_sampled: f64,
}

/// (server, plan, generation, φ bits, accuracy bits).
type ColdKey = (u32, String, u64, u64, (u64, u64, u64));

impl<'a> Checker<'a> {
    pub fn new(
        lookup: &'a dyn Fn(DbKey, RankSpec) -> &'a Table,
        iterations: &'a HashMap<IterKey, u64>,
    ) -> Self {
        Checker {
            lookup,
            iterations,
            cold: HashMap::new(),
            worst_approx: 0.0,
            worst_sampled: 0.0,
        }
    }

    /// `Ok` when the reply is right; otherwise why it is wrong.
    pub fn check(&mut self, sent: &Sent) -> Result<(), String> {
        let lines = sent
            .reply
            .as_ref()
            .map_err(|e| format!("error reply: {e}"))?;
        let table = (self.lookup)(sent.db, sent.rank);
        match &sent.expect {
            Expect::Registered => {
                let line = lines.first().ok_or("empty register reply")?;
                let answers = line
                    .split_whitespace()
                    .find_map(|t| t.strip_prefix("answers="))
                    .ok_or_else(|| format!("no answers= in {line:?}"))?;
                if answers != table.total().to_string() {
                    return Err(format!(
                        "registered |Q(D)| {answers}, oracle {}",
                        table.total()
                    ));
                }
                Ok(())
            }
            Expect::Generation(g) => {
                let line = lines.first().ok_or("empty open/replace reply")?;
                if !line.ends_with(&format!("generation {g})")) {
                    return Err(format!("expected generation {g} in {line:?}"));
                }
                Ok(())
            }
            Expect::Answers { acc, cached } => {
                let k = sent.phis.len();
                if k > 1 {
                    let summary = lines.get(k).ok_or("batch reply without summary")?;
                    let want = if *cached {
                        "0 solved".to_string()
                    } else {
                        format!("{k} solved")
                    };
                    if lines.len() != k + 1 || !summary.contains(&want) {
                        return Err(format!("batch summary {summary:?}, expected {want}"));
                    }
                } else if lines.len() != 1 {
                    return Err(format!("expected one answer line, got {}", lines.len()));
                }
                for (phi, line) in sent.phis.iter().zip(lines) {
                    self.check_answer(sent, table, *phi, *acc, *cached, line)?;
                }
                Ok(())
            }
        }
    }

    fn check_answer(
        &mut self,
        sent: &Sent,
        table: &Table,
        phi: f64,
        acc: Acc,
        want_cached: bool,
        line: &str,
    ) -> Result<(), String> {
        let answer = parse_answer(line)?;
        let n = table.total();
        let t = target_rank(phi, n);
        if answer.total != n {
            return Err(format!(
                "|Q(D)| {} but oracle counts {n}: {line}",
                answer.total
            ));
        }
        if answer.rank != t {
            return Err(format!(
                "target rank {} but oracle says {t}: {line}",
                answer.rank
            ));
        }
        if answer.cached != want_cached {
            return Err(format!(
                "cached={} where {want_cached} was due: {line}",
                answer.cached
            ));
        }
        let key = (
            sent.epoch,
            sent.plan.clone(),
            sent.generation,
            phi.to_bits(),
            acc.key(),
        );
        let bare = line.trim_end_matches(" (cached)");
        if want_cached {
            return match self.cold.get(&key) {
                Some(cold) if cold == bare => Ok(()),
                Some(cold) => Err(format!("cached reply {line:?} differs from cold {cold:?}")),
                None => Err(format!(
                    "cache hit with no cold reply in this generation: {line}"
                )),
            };
        }
        match acc {
            Acc::Exact => {
                let want = table.at(t).to_string();
                if answer.weight != want {
                    return Err(format!(
                        "weight {} but oracle has {want} at rank {t}",
                        answer.weight
                    ));
                }
            }
            Acc::Approx { eps } => {
                let key = (sent.db, sent.rank.wire, eps.to_bits(), phi.to_bits());
                let i = *self
                    .iterations
                    .get(&key)
                    .ok_or_else(|| format!("no iteration count counted for {line}"))?;
                let slack = (2.0 * eps * i.max(1) as f64 * n as f64).max(1.0);
                let error = within(table, t, &answer.weight, slack)?;
                self.worst_approx = self.worst_approx.max(error as f64 / n as f64);
            }
            Acc::Sampled { eps, .. } => {
                let error = within(table, t, &answer.weight, (eps * n as f64).max(1.0))?;
                self.worst_sampled = self.worst_sampled.max(error as f64 / n as f64);
            }
        }
        self.cold.insert(key, bare.to_string());
        Ok(())
    }
}

/// The weight must belong to some answer whose rank lies within `slack` of `t`.
/// Returns that distance in ranks.
fn within(table: &Table, t: u128, weight: &str, slack: f64) -> Result<u128, String> {
    let w = parse_weight(weight).ok_or_else(|| format!("unparsable weight {weight:?}"))?;
    let (below, equal) = table.window(&w);
    if equal == 0 {
        return Err(format!("weight {weight} is the weight of no answer"));
    }
    let error = if t < below {
        below - t
    } else if t >= below + equal {
        t + 1 - (below + equal)
    } else {
        0
    };
    if error as f64 > slack {
        return Err(format!(
            "weight {weight} is {error} ranks from target {t}; the stated bound is {slack:.0}"
        ));
    }
    Ok(error)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_answer_lines() {
        let a =
            parse_answer("phi=0.5000: weight=(3, 4.5) rank=10/20 iterations=2 (cached)").unwrap();
        assert_eq!(a.weight, "(3, 4.5)");
        assert_eq!((a.rank, a.total, a.iterations, a.cached), (10, 20, 2, true));
        let b = parse_answer("phi=0.1000 eps=0.02: weight=17 rank=1/9 iterations=0").unwrap();
        assert_eq!((b.weight.as_str(), b.cached), ("17", false));
        assert_eq!(parse_weight("(1, 2.5)"), Some(Weight::Vec(vec![1.0, 2.5])));
        assert!(parse_answer("garbage").is_err());
    }
}
